package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileSampleCountRule(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		samples    []float64
		pct        int
		value      float64
		n, beyond  int
		reportable bool
	}{
		{hundred, 90, 90, 100, 10, true},
		{hundred[:99], 90, 91, 99, 9, false},
		{hundred, 50, 50, 100, 50, true},
		{[]float64{4, 1, 3, 2}, 50, 2, 4, 2, false},
		{[]float64{5}, 90, 5, 1, 0, false},
	}
	for _, c := range cases {
		p := percentile(c.samples, c.pct)
		if p.Value != c.value || p.N != c.n || p.Beyond != c.beyond || p.Reportable() != c.reportable {
			t.Errorf("p%d of %d samples = %+v (reportable %v), want value %v n %d beyond %d reportable %v",
				c.pct, len(c.samples), p, p.Reportable(), c.value, c.n, c.beyond, c.reportable)
		}
	}
	if p := percentile(nil, 50); p.N != 0 || p.Reportable() {
		t.Errorf("empty percentile = %+v", p)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the part of BENCHMARK.json the tables must mirror.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	strip := func(ds []metricDef) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if got, want := strip(endToEnd), bj.EndToEnd; !equalDefs(got, want) {
		t.Errorf("end-to-end table %+v\ndiffers from BENCHMARK.json %+v", got, want)
	}
	if got, want := strip(perLayer), bj.PerLayer; !equalDefs(got, want) {
		t.Errorf("per-layer table %+v\ndiffers from BENCHMARK.json %+v", got, want)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Bound == 0 && d.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", d.Name)
		}
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrintedMetricsDeclared runs small versions of the workloads, traced
// and untraced, and checks every metric they print against BENCHMARK.json.
func TestPrintedMetricsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs syntheses and a job server")
	}
	bj := readBenchmarkJSON(t)
	declared := map[string]bool{}
	for _, d := range append(bj.EndToEnd, bj.PerLayer...) {
		declared[d.Name] = true
	}
	for _, traced := range []bool{false, true} {
		for _, w := range []struct {
			name string
			run  func(b *harness) error
		}{
			{"sweep", func(b *harness) error { return b.sweep(sweepPlan{specs: []string{"mul9"}, dvs: true}) }},
			{"serve_mix", (*harness).serveMix},
		} {
			var out, log bytes.Buffer
			b := &harness{
				root: "..", buildDir: t.TempDir(), workload: w.name, seed: 1,
				seconds: time.Second, traced: traced, out: &out, rep: newReport(&log),
			}
			if err := w.run(b); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, log.String())
			}
			if err := b.emit(); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if b.rep.failed > 0 {
				t.Fatalf("%s traced=%v: %d of %d checks failed\n%s", w.name, traced, b.rep.failed, b.rep.attempted, log.String())
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			checkPrinted(t, &out, declared, want)
		}
	}
}

// checkPrinted checks the metric lines and the final JSON line of one
// run's output.
func checkPrinted(t *testing.T, r io.Reader, declared map[string]bool, want int) {
	t.Helper()
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		last = sc.Text()
		if fields := strings.Fields(last); len(fields) > 1 && fields[0] == "metric" {
			if !declared[fields[1]] || !metricName.MatchString(fields[1]) {
				t.Errorf("printed metric %q is not declared in BENCHMARK.json", fields[1])
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != want {
		t.Errorf("result %+v: want correct, attempted >= 1 and %d metrics", res, want)
	}
	for name := range res.Metrics {
		if !declared[name] {
			t.Errorf("result metric %q is not declared in BENCHMARK.json", name)
		}
	}
}
