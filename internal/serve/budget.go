package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/synth"
)

// Job budgets and lifecycle hardening: attempt accounting with exponential
// backoff and quarantine, per-job wall-clock deadlines, a worker watchdog
// for attempts that stop making generation progress, and the sliding
// windows behind overload-aware admission and /readyz degradation.

// errJobDeadline is the cancellation cause of a run stopped by its
// wall-clock budget (-job-timeout or the request's deadline_ms).
var errJobDeadline = errors.New("serve: job deadline exceeded")

// errWatchdogStall is the cancellation cause of a run killed by the worker
// watchdog because its GA made no generation progress for too long.
var errWatchdogStall = errors.New("serve: watchdog: no generation progress")

// quarantineCause renders the terminal error of a quarantined job.
func quarantineCause(attempts int, last error) string {
	return fmt.Sprintf("quarantined after %d failed attempts; last failure: %v", attempts, last)
}

// retryDelay is the exponential backoff separating attempt n (1-based
// count of failures so far) from the next execution, capped at one minute
// so a long-lived flapping job still retries at a bounded cadence.
func retryDelay(base time.Duration, attempts int) time.Duration {
	if base <= 0 {
		return 0
	}
	const maxDelay = time.Minute
	d := base
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= maxDelay {
			return maxDelay
		}
	}
	if d > maxDelay {
		return maxDelay
	}
	return d
}

// ---- failpoints ----

// validFailpoint accepts the failpoint names submissions may carry when
// Config.Failpoints is on: "fail" (every attempt errors), "fail:N" (the
// first N attempts error, then the job runs normally), "panic" (the
// attempt panics), "hang" (the attempt wedges, ignoring cancellation — the
// watchdog-abandon case), "hang-coop" (the attempt blocks until cancelled,
// then errors with the cancellation cause).
func validFailpoint(name string) bool {
	base, arg, hasArg := strings.Cut(name, ":")
	switch base {
	case "fail":
		if !hasArg {
			return true
		}
		n, err := strconv.Atoi(arg)
		return err == nil && n > 0
	case "panic", "hang", "hang-coop":
		return !hasArg
	default:
		return false
	}
}

// failpoint executes the named fault in place of the synthesis. It runs
// inside the same goroutine and panic barrier as a real run, so its faults
// exercise the genuine failure paths.
func (s *Server) failpoint(ctx context.Context, j *Job, name string) error {
	base, arg, _ := strings.Cut(name, ":")
	switch base {
	case "fail":
		if n, err := strconv.Atoi(arg); err == nil {
			j.mu.Lock()
			prior := j.attempts
			j.mu.Unlock()
			if prior >= n {
				return nil // budget of injected failures spent: run for real
			}
		}
		return errors.New("failpoint: injected attempt failure")
	case "panic":
		panic("failpoint: injected panic")
	case "hang":
		select {} // wedged: never observes cancellation
	case "hang-coop":
		<-ctx.Done()
		return context.Cause(ctx)
	default:
		return fmt.Errorf("unknown failpoint %q", name)
	}
}

// ---- overload signals ----

// eventWindow is a sliding one-minute event counter (sheds, quarantines)
// feeding the /readyz degradation thresholds.
type eventWindow struct {
	mu    sync.Mutex
	times []time.Time
}

const eventWindowSpan = time.Minute

func (w *eventWindow) record(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.prune(now)
	w.times = append(w.times, now)
}

func (w *eventWindow) count(now time.Time) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.prune(now)
	return len(w.times)
}

func (w *eventWindow) prune(now time.Time) {
	cut := now.Add(-eventWindowSpan)
	i := 0
	for i < len(w.times) && w.times[i].Before(cut) {
		i++
	}
	if i > 0 {
		w.times = append(w.times[:0], w.times[i:]...)
	}
}

// observeServiceTime folds one finished execution into the EWMA the
// admission estimator uses (published as the serve.job_seconds_avg gauge).
func (s *Server) observeServiceTime(d time.Duration) {
	const alpha = 0.3
	s.svcMu.Lock()
	if s.svcAvg <= 0 {
		s.svcAvg = d.Seconds()
	} else {
		s.svcAvg = (1-alpha)*s.svcAvg + alpha*d.Seconds()
	}
	avg := s.svcAvg
	s.svcMu.Unlock()
	s.reg.Gauge("serve.job_seconds_avg").Set(avg)
}

// estimateWait predicts how long a submission admitted now would wait
// before finishing, from the queue backlog and the observed per-job
// service time. ok is false until at least one execution has been timed —
// with no estimate the server admits rather than guessing.
func (s *Server) estimateWait(queued int) (time.Duration, bool) {
	s.svcMu.Lock()
	avg := s.svcAvg
	s.svcMu.Unlock()
	if avg <= 0 {
		return 0, false
	}
	waves := queued/s.cfg.Workers + 1 // the backlog ahead, plus this job's own run
	return time.Duration(float64(waves) * avg * float64(time.Second)), true
}

// shedSubmission answers a submission whose deadline cannot plausibly be
// met. The Retry-After hint is the predicted wait, rounded up.
func (s *Server) shedRetryAfter(wait time.Duration) string {
	secs := int(wait / time.Second)
	if wait%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// ---- worker watchdog ----

// synthOutcome carries a synthesis attempt's results across the supervisor
// channel.
type synthOutcome struct {
	sys *model.System
	res *synth.Result
	err error
}

// superviseSynthesis runs the job's synthesis in its own goroutine and
// watches its generation progress. An attempt whose GA gauge stops moving
// for longer than Config.WatchdogStall is cancelled (cause
// errWatchdogStall); if it still has not returned after
// Config.WatchdogGrace the slot is abandoned so the pool keeps serving —
// the runaway goroutine leaks, but its late writes are fenced by its lease
// epoch.
// abandoned reports the slot-abandonment case.
func (s *Server) superviseSynthesis(ctx context.Context, cancel context.CancelCauseFunc, j *Job, run *obs.Run) (out synthOutcome, abandoned bool) {
	outc := make(chan synthOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				outc <- synthOutcome{err: fmt.Errorf("synthesis panicked: %v", p)}
			}
		}()
		sys, res, err := s.synthesize(ctx, j, run)
		outc <- synthOutcome{sys: sys, res: res, err: err}
	}()
	if s.cfg.WatchdogStall <= 0 {
		return <-outc, false
	}
	interval := s.cfg.WatchdogStall / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	gen := run.Registry().Gauge("ga.generation")
	lastGen := gen.Value()
	lastMove := time.Now()
	var killedAt time.Time
	for {
		select {
		case out = <-outc:
			return out, false
		case <-ticker.C:
		}
		now := time.Now()
		if !killedAt.IsZero() {
			if now.Sub(killedAt) < s.cfg.WatchdogGrace {
				continue
			}
			// Cancelled and still not back: the attempt is wedged below the
			// generation loop. Give the slot up.
			s.logf("serve: job %s: watchdog: attempt unresponsive %v after cancel; abandoning slot", j.ID, s.cfg.WatchdogGrace)
			return synthOutcome{err: fmt.Errorf("%w (attempt unresponsive, slot abandoned)", errWatchdogStall)}, true
		}
		if g := gen.Value(); g != lastGen {
			lastGen, lastMove = g, now
			continue
		}
		if now.Sub(lastMove) >= s.cfg.WatchdogStall {
			killedAt = now
			s.reg.Counter("serve.watchdog_kills").Inc()
			s.logf("serve: job %s: watchdog: no generation progress for %v; cancelling attempt", j.ID, s.cfg.WatchdogStall)
			cancel(errWatchdogStall)
		}
	}
}
