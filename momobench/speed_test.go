package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for momobench as the
// speed-reference helper, which the workloads start from their own binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == speedRefArg {
		os.Exit(serveSpeedRef(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// The speed reference must allocate nothing while it is timed, or it would
// measure the garbage collector as well as the host.
func TestSpeedRefPassAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if len(k.table) != refKeys {
		t.Fatalf("reference table holds %d keys, want %d", len(k.table), refKeys)
	}
	if allocs := testing.AllocsPerRun(3, k.pass); allocs != 0 {
		t.Errorf("a reference pass allocates %v times", allocs)
	}
}

func TestSpeedRefHelper(t *testing.T) {
	s, err := startSpeedRef()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.sample(3); err != nil {
		t.Fatal(err)
	}
	if err := s.stop(); err != nil {
		t.Fatalf("helper exit: %v", err)
	}
	if len(s.samples) != 3 || s.factor() <= 0 {
		t.Fatalf("samples %v, factor %v", s.samples, s.factor())
	}
	t.Logf("samples %v s, factor %.3f", s.samples, s.factor())
}
