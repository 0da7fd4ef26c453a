// Command momobench is the repository's benchmark. It runs one workload
// against the synthesis and job-service packages, checks that every output
// is correct, and prints every metric by name with its unit and sample
// count. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records spans around each layer call and reports the
// per-layer metrics instead. BENCHMARK.json at the repository root
// declares both sets and the workloads.
//
// Run it from the repository root through its build script:
//
//	bash momobench/run.sh --workload mul_sweep --seed 1 --seconds 15 --trace 0
//
// With speedref as its only argument it is instead the helper process of
// the host-speed reference that scales cpu_s (speed.go).
//
// Workloads: mul_sweep (paper GA on mul1–mul12, DVS off), dvs_sweep (the
// same protocol with DVS on, over smartphone and six muls) and
// serve_mix (an in-process job server under a closed loop of two clients,
// half of whose requests are cache hits).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"momosyn/internal/obs"
)

// harness is the state of one benchmark run.
type harness struct {
	root     string // repository checkout (holds specs/)
	buildDir string // scratch space inside the checkout
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      io.Writer
	rep      *report
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == speedRefArg {
		os.Exit(serveSpeedRef(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("momobench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "mul_sweep, dvs_sweep or serve_mix")
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", 15, "measuring time in seconds")
	trace := fl.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "momobench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	b := &harness{
		root:     ".",
		buildDir: ".bench_build",
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		out:      out,
		rep:      newReport(stderr),
	}
	if err := os.MkdirAll(b.buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "momobench:", err)
		return 1
	}
	// Flush what earlier processes left to write back (a previous run's
	// deleted server data, the fresh binary) so that it does not land in
	// this run's fsyncs.
	syscall.Sync()
	if err := b.printEnv(); err != nil {
		fmt.Fprintln(stderr, "momobench:", err)
		return 1
	}
	var err error
	switch b.workload {
	case "mul_sweep":
		err = b.sweep(mulSweep)
	case "dvs_sweep":
		err = b.sweep(dvsSweep)
	case "serve_mix":
		err = b.serveMix()
	default:
		fmt.Fprintf(stderr, "momobench: unknown workload %q\n", b.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "momobench:", err)
		return 1
	}
	if err := b.emit(); err != nil {
		fmt.Fprintln(stderr, "momobench:", err)
		return 1
	}
	if b.rep.failed > 0 {
		return 1
	}
	return 0
}

// emit prints the run's metrics: the end-to-end ones untraced, the
// per-layer ones traced.
func (b *harness) emit() error {
	if b.traced {
		return b.rep.emit(b.out, perLayer)
	}
	if _, ok := b.rep.values["peak_rss_mb"]; !ok {
		b.rep.set("peak_rss_mb", peakRSSMB(), 1, "process peak over the measured phase")
	}
	return b.rep.emit(b.out, endToEnd)
}

// envRecord identifies what was measured and where.
type envRecord struct {
	Go           string `json:"go"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

// printEnv prints the environment record. Commit is the VCS revision
// stamped into the binary when it was built inside a repository, "none"
// otherwise; SourceSHA256 digests the checkout's sources either way.
func (b *harness) printEnv() error {
	digest, err := sourceDigest(b.root)
	if err != nil {
		return err
	}
	env := envRecord{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: "none", SourceSHA256: digest,
		Workload: b.workload, Seed: b.seed, Seconds: int(b.seconds / time.Second), Trace: b.traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	data, err := json.Marshal(&env)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "env %s\n", data)
	return nil
}

// sourceDigest hashes the path and content of every Go source, module
// file and specification under root, skipping the build directory.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == ".bench_build" || name == ".git") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".spec") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// fingerprint prints the exact behaviour of the run: the counts and one
// record per synthesis, with a digest over the records.
func (b *harness) fingerprint(recs []record, evals, gens, hits, misses int) {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%s %d %v %s %v\n", r.Spec, r.Seed, r.DVS, r.PowerBits, r.Feasible)
	}
	fp := struct {
		Workload    string   `json:"workload"`
		Seed        int64    `json:"seed"`
		Evaluations int      `json:"synth.evaluations"`
		Generations int      `json:"ga.generations"`
		Hits        int      `json:"hits"`
		Misses      int      `json:"misses"`
		Digest      string   `json:"digest"`
		Syntheses   []record `json:"syntheses"`
	}{b.workload, b.seed, evals, gens, hits, misses, hex.EncodeToString(h.Sum(nil)), recs}
	data, err := json.Marshal(&fp)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	fmt.Fprintf(b.out, "fingerprint %s\n", data)
}

// writeTrace stores a traced run's spans and lifecycle events under the
// build directory.
func (b *harness) writeTrace(tr *tracer, lifecycle []*obs.Event) error {
	path := filepath.Join(b.buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := tr.write(path, lifecycle); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "trace %s\n", path)
	return nil
}

// cpuTime returns the CPU time, user plus system over all threads, that
// this process has used. The kernel leaves out of it the time the
// hypervisor gave the CPU to other guests (steal), which the wall clock
// counts, and the time the process waited for a CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's resident-set high-water mark of this process, so the next peak
// read covers what follows from a settled heap. Where the kernel offers no
// reset the peak covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
