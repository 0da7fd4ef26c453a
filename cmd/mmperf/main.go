// Command mmperf maintains the repository's performance trajectory.
//
//	mmperf run  -specs muls -reps 5 -out BENCH.json   # measure the suite
//	mmperf diff old.json new.json                     # gate on regressions
//
// `mmperf run` executes the configured benchmark specifications under
// instrumentation and writes one canonical BENCH_<commit>.json artifact:
// per-spec wall time, evals/sec, per-phase breakdown, fitness-cache hit
// rate, allocation counts, and an environment fingerprint. `mmperf diff`
// compares two artifacts with robust statistics (median + MAD across
// repetitions) and exits 1 when a metric regressed past threshold.
//
// Exit codes: 0 success (diff: no regression), 1 runtime failure or a
// certified regression, 2 usage error (bad flags, unreadable or invalid
// artifacts). See docs/PERF.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"momosyn/internal/ga"
	"momosyn/internal/perf"
	"momosyn/internal/runctl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return runMeasure(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "mmperf: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  mmperf run  [flags]              measure the benchmark suite, write a BENCH artifact
  mmperf diff [flags] old new      compare two artifacts, exit 1 on regression
Run 'mmperf run -h' or 'mmperf diff -h' for per-subcommand flags.
`)
}

func runMeasure(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmperf run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := ga.Config{}.ResolveBudget()
	var (
		specsArg = fs.String("specs", "muls", "comma-separated specs: muls (the full mul1-mul12 suite), mulN, smartphone, or spec file paths")
		reps     = fs.Int("reps", 3, "measured repetitions per spec")
		warmups  = fs.Int("warmups", 1, "unmeasured warm-up runs per spec")
		seed     = fs.Int64("seed", 1, "base seed (rep r runs at seed + r*7919)")
		useDVS   = fs.Bool("dvs", false, "enable voltage scaling during the measured runs")
		pop      = fs.Int("pop", def.PopSize, "GA population size")
		gens     = fs.Int("gens", def.MaxGenerations, "GA generation limit")
		stag     = fs.Int("stagnation", def.Stagnation, "GA stagnation limit")
		out      = fs.String("out", "", "artifact output path (default BENCH_<commit>.json in the working directory)")
		progress = fs.Bool("progress", false, "print a stderr heartbeat after each spec")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mmperf run: unexpected arguments %v\n", fs.Args())
		return 2
	}
	specs, err := perf.ResolveSpecs(strings.Split(*specsArg, ","))
	if err != nil {
		fmt.Fprintln(stderr, "mmperf run:", err)
		return 2
	}
	ctx, stop := runctl.NotifyContext(context.Background())
	defer stop()
	opt := perf.RunOptions{
		Reps:    *reps,
		Warmups: *warmups,
		Seed:    *seed,
		DVS:     *useDVS,
		GA:      ga.Config{PopSize: *pop, MaxGenerations: *gens, Stagnation: *stag},
		Context: ctx,
	}
	if *progress {
		opt.Progress = stderr
	}
	art, err := perf.Run(specs, opt)
	if err != nil {
		fmt.Fprintln(stderr, "mmperf run:", err)
		return 1
	}
	path := *out
	if path == "" {
		path = perf.ArtifactName(art.Env.Commit)
	}
	if err := art.WriteFile(path); err != nil {
		fmt.Fprintln(stderr, "mmperf run:", err)
		return 1
	}
	fmt.Fprintf(stdout, "mmperf: wrote %s (%d specs, %d reps each, commit %s)\n",
		path, len(art.Specs), art.Config.Reps, art.Env.Commit)
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmperf diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := perf.DefaultThresholds()
	var (
		wall    = fs.Float64("wall", def.Wall, "relative threshold for per-spec median wall time")
		phase   = fs.Float64("phase", def.Phase, "relative threshold for per-phase median times")
		evals   = fs.Float64("evals", def.Evals, "relative threshold for median evals/sec")
		cache   = fs.Float64("cache", def.Cache, "absolute threshold for the median cache hit rate")
		allocs  = fs.Float64("allocs", def.Allocs, "relative threshold for median allocation counts")
		madk    = fs.Float64("madk", def.MADK, "noise gate: |delta| must exceed madk * max(MAD old, MAD new)")
		minPh   = fs.Int64("min-phase-ns", def.MinPhaseNs, "ignore phases whose medians are both below this many ns")
		verbose = fs.Bool("v", false, "print every compared metric, not only headline and changed rows")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "mmperf diff: want exactly two artifact paths (old new)")
		return 2
	}
	oldArt, err := perf.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "mmperf diff:", err)
		return 2
	}
	newArt, err := perf.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "mmperf diff:", err)
		return 2
	}
	th := perf.Thresholds{
		Wall: *wall, Phase: *phase, Evals: *evals, Cache: *cache,
		Allocs: *allocs, MADK: *madk, MinPhaseNs: *minPh,
	}
	deltas, warnings := perf.Diff(oldArt, newArt, th)
	perf.FormatDeltas(stdout, deltas, warnings, *verbose)
	if regs := perf.Regressions(deltas); len(regs) > 0 {
		fmt.Fprintf(stdout, "mmperf: %d metric(s) regressed (old %s -> new %s)\n",
			len(regs), oldArt.Env.Commit, newArt.Env.Commit)
		return 1
	}
	fmt.Fprintf(stdout, "mmperf: no regressions (old %s -> new %s)\n",
		oldArt.Env.Commit, newArt.Env.Commit)
	return 0
}
