// Command mmserved serves multi-mode synthesis as a long-running HTTP JSON
// job service: clients POST specifications to /v1/jobs, poll live GA
// progress, fetch certified results and cancel runs, while a bounded queue
// and a configurable worker pool keep the machine loaded without being
// overrun. See docs/SERVER.md for the API.
//
//	mmserved -data /var/lib/mmserved
//	mmserved -data ./run -addr 127.0.0.1:8080 -workers 4 -specs ./specs
//	mmserved -data /shared/mm -node-id nodeA   # one node of a fleet
//
// -data is the job store. A lone server is a fleet of one; any number of
// mmserved processes pointed at the same directory under distinct
// -node-id values form a fault-tolerant fleet: jobs are claimed through
// epoch-numbered lease files, renewed by heartbeats, and recovered (from
// their last checkpoint) by surviving nodes when a holder dies, hangs or
// is partitioned. See docs/FLEET.md.
//
// Jobs checkpoint their engine state into the data directory; a restarted
// server lists finished jobs and resumes interrupted ones from their
// checkpoints. SIGINT/SIGTERM drain gracefully: submissions are refused,
// running syntheses stop at the next generation boundary with a final
// checkpoint, their leases are released so a restart claims them at once,
// and the process exits 0. After a kill -9 a restart first waits out the
// lease TTL. A data directory in the single-node layout of earlier
// releases is converted in place at startup.
//
// Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		dataDir   = flag.String("data", "", "job store directory: job manifests, checkpoints, results and batch records; servers sharing it form a fleet (required)")
		specDir   = flag.String("specs", "", "directory of named specifications clients may reference via spec_name")
		workers   = flag.Int("workers", 2, "synthesis worker pool size")
		queue     = flag.Int("queue", 16, "bounded job queue depth (full queue answers 429)")
		ckptEvery = flag.Int("checkpoint-every", 5, "generations between per-job checkpoints")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline for in-flight jobs")
		traceJobs = flag.Bool("trace-jobs", false, "write a JSONL run-trace per job into its data directory")
		lifecycle = flag.String("lifecycle-trace", "", "append job-lifecycle span events (JSONL) to this file; readable with mmtrace -lifecycle")
		accessLog = flag.String("access-log", "", "append a structured JSON access log (one line per request) to this file")
		nodeID    = flag.String("node-id", "", "this server's unique ID among those sharing -data (default <hostname>-<pid>)")
		leaseTTL  = flag.Duration("lease-ttl", 5*time.Second, "job lease time-to-live; a node silent this long loses its jobs, and a restart after a crash waits this long (see docs/FLEET.md)")
		heartbeat = flag.Duration("heartbeat", 0, "lease renewal and job-store scan interval (default lease-ttl/3)")
		cacheDir  = flag.String("cache-dir", "", "content-addressed result cache directory, off by default; repeat submissions are answered instantly (see docs/CACHE.md)")
		cacheMax  = flag.Int64("cache-max-bytes", 0, "result cache size cap; least-recently-used entries are evicted beyond it (0 = unbounded)")

		maxAttempts   = flag.Int("max-attempts", 3, "per-job execution budget; a job failing this many times is quarantined")
		retryBackoff  = flag.Duration("retry-backoff", 2*time.Second, "base delay between a failed attempt and its retry (doubles per failure, capped at 1m)")
		jobTimeout    = flag.Duration("job-timeout", 0, "per-attempt wall-clock budget; 0 disables (requests may set a tighter deadline_ms)")
		maxGens       = flag.Int("max-generations", 0, "server-wide GA generation cap per job; 0 disables")
		watchdogStall = flag.Duration("watchdog-stall", 2*time.Minute, "fail an attempt whose GA makes no generation progress this long; 0 disables")
		watchdogGrace = flag.Duration("watchdog-grace", 10*time.Second, "after a watchdog kill, abandon the worker slot if the attempt is still wedged this long")
		failpoints    = flag.Bool("failpoints", false, "accept submissions carrying a failpoint fault injection (lifecycle drills only)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "mmserved: ", log.LstdFlags)
	if flag.NArg() > 0 {
		fatalUsage(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *dataDir == "" {
		fatalUsage(errors.New("-data is required"))
	}
	if *workers <= 0 || *queue <= 0 || *ckptEvery <= 0 {
		fatalUsage(errors.New("-workers, -queue and -checkpoint-every must be positive"))
	}
	if *maxAttempts <= 0 {
		fatalUsage(errors.New("-max-attempts must be positive"))
	}
	if *jobTimeout < 0 || *watchdogStall < 0 || *watchdogGrace < 0 || *retryBackoff < 0 || *maxGens < 0 {
		fatalUsage(errors.New("-job-timeout, -watchdog-stall, -watchdog-grace, -retry-backoff and -max-generations must not be negative"))
	}
	if *nodeID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "node"
		}
		*nodeID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var lifecycleRun *obs.Run
	if *lifecycle != "" {
		f, err := os.OpenFile(*lifecycle, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Print(err)
			os.Exit(1)
		}
		lifecycleRun = obs.NewRun(nil, obs.NewJSONLSink(f))
	}
	var accessLogW io.Writer
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Print(err)
			os.Exit(1)
		}
		defer f.Close()
		accessLogW = f
	}

	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DataDir:         *dataDir,
		SpecDir:         *specDir,
		CheckpointEvery: *ckptEvery,
		TraceJobs:       *traceJobs,
		Lifecycle:       lifecycleRun,
		AccessLog:       accessLogW,
		Registry:        obs.NewRegistry(),
		Logf:            logger.Printf,
		NodeID:          *nodeID,
		LeaseTTL:        *leaseTTL,
		Heartbeat:       *heartbeat,
		MaxAttempts:     *maxAttempts,
		RetryBackoff:    *retryBackoff,
		JobTimeout:      *jobTimeout,
		MaxGenerations:  *maxGens,
		WatchdogStall:   *watchdogStall,
		WatchdogGrace:   *watchdogGrace,
		Failpoints:      *failpoints,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheMax,
	})
	if err != nil {
		logger.Print(err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		os.Exit(1)
	}
	// The resolved address goes to stdout so scripts (and humans) can find
	// a :0-assigned port.
	fmt.Printf("mmserved listening on http://%s\n", ln.Addr())

	ctx, stop := runctl.NotifyContext(context.Background())
	defer stop()
	srv.Start(ctx)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				serveErr <- fmt.Errorf("http server panicked: %v", p)
			}
		}()
		serveErr <- httpSrv.Serve(ln)
	}()

	exit := 0
	select {
	case <-ctx.Done():
		logger.Printf("signal received, draining (deadline %v)", *drain)
	case err := <-serveErr:
		logger.Printf("http server failed: %v", err)
		exit = 1
	}

	deadline, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(deadline); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(deadline); err != nil {
		logger.Printf("%v (interrupted jobs stay resumable)", err)
		if exit == 0 {
			exit = 1
		}
	} else {
		logger.Print("drained cleanly")
	}
	// The lifecycle sink buffers; flush it after the drain so the trailing
	// terminal/fenced spans of drained jobs reach disk. Nil-safe when off.
	if err := lifecycleRun.Close(); err != nil {
		logger.Printf("lifecycle trace: %v", err)
		if exit == 0 {
			exit = 1
		}
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// fatalUsage reports a command-line usage error (exit 2), matching the
// flag package's own exit code for unparsable flags.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "mmserved:", err)
	flag.Usage()
	os.Exit(2)
}
