package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"momosyn/internal/fleet"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/synth"
)

// The job store. Every server publishes its jobs into the fleet.Store over
// Config.DataDir: a claim loop leases runnable jobs to the local worker
// pool, heartbeats renew the leases, and every persist of job state is
// fenced by the lease epoch, so a node that died, hung or was partitioned
// can never clobber the state of a job another node (or its own restart)
// reclaimed. A lone server is a fleet of one. See docs/FLEET.md for the
// protocol and its failure matrix.

// manifest renders the job's manifest for a persist at the given epoch.
func (s *Server) manifest(j *Job, snap jobSnapshot, epoch int) ([]byte, error) {
	m := manifest{
		ID:          j.ID,
		Request:     j.Request,
		System:      j.system,
		State:       snap.State,
		Error:       snap.Err,
		Created:     snap.Created,
		Started:     snap.Started,
		Finished:    snap.Finished,
		ResumedFrom: snap.ResumedFrom,
		Node:        s.cfg.NodeID,
		Epoch:       epoch,
		Cached:      snap.Cached,
	}
	m.Attempts, m.NotBefore = manifestRetry(snap)
	return json.MarshalIndent(&m, "", "  ")
}

// persist writes the job's manifest through the lease fence. On fence
// rejection the job is marked fenced; other write failures are logged
// only: the job keeps serving from the in-memory table and merely loses
// restart durability.
func (s *Server) persist(j *Job, lease *fleet.Lease, snap jobSnapshot) {
	data, err := s.manifest(j, snap, lease.Epoch)
	if err == nil {
		err = lease.Write(fleet.KindManifest, data)
	}
	switch {
	case err == nil:
	case errors.Is(err, fleet.ErrLeaseLost):
		s.fence(j, nil, err)
	default:
		s.logf("serve: job %s: persist manifest: %v", j.ID, err)
	}
}

// claimLoop is the node's coordination loop: a full scan every Heartbeat
// refreshes the local view of the store, advertises node liveness, claims
// runnable jobs for free worker slots and maintains the fleet gauges; a
// wake-up between scans (a submission, a finished run) only claims. It
// runs until the root context dies.
func (s *Server) claimLoop(ctx context.Context) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("serve: claim loop crashed: %v", p)
		}
	}()
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	full := true
	for {
		if full {
			s.scan(ctx)
		} else {
			s.claimRunnable(ctx)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			full = true
		case <-s.wake:
			full = false
		}
	}
}

// wakeClaims prompts the claim loop to claim now. Wake-ups coalesce: one
// pending is enough.
func (s *Server) wakeClaims() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// scan is one full pass of the claim loop.
func (s *Server) scan(ctx context.Context) {
	if err := s.store.HeartbeatNode(); err != nil {
		s.logf("serve: fleet: node heartbeat: %v", err)
	}
	if err := s.syncJobs(); err != nil {
		s.logf("serve: fleet: sync: %v", err)
		s.fleetDegraded.Set(1)
		return
	}
	s.claimRunnable(ctx)
	s.updateFleetGauges()
}

// syncJobs reconciles the in-memory job table with the store: unknown
// jobs are adopted, and unfinished jobs this node is not itself holding
// are refreshed from their latest valid manifest. A terminal manifest is
// final, so terminal jobs are never read again.
func (s *Server) syncJobs() error {
	ids, err := s.store.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			s.adopt(id)
			continue
		}
		j.mu.Lock()
		skip := j.lease != nil || j.state.Terminal()
		j.mu.Unlock()
		if !skip {
			if err := s.refresh(j, false); err != nil {
				s.logf("serve: fleet: refresh %s: %v", id, err)
			}
		}
	}
	s.mu.Lock()
	s.jobsByState()
	s.mu.Unlock()
	return nil
}

// job returns the table's entry for id, adopting the job from the store
// when this node has not seen it yet — so a job published through any
// node is visible through every node as soon as its manifest lands. It
// returns nil for unknown, unpublished or unreadable jobs.
func (s *Server) job(id string) *Job {
	if !validJobID(id) {
		return nil
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		j = s.adopt(id)
	}
	return j
}

// adopt builds the local view of a job another node (or an earlier
// incarnation of this one) published and enters it into the job table. It
// returns the table's entry, which is an earlier adopter's when a
// concurrent adoption of the same job won, or nil when the job cannot be
// read: not yet published (no manifest yet — a submitter is mid-publish)
// or damaged (every manifest epoch corrupt, or the spec unreadable). A
// damaged job is counted once in serve.manifests_skipped; later scans try
// it again quietly, so one whose read failed only transiently returns.
func (s *Server) adopt(id string) *Job {
	j, err := s.readJob(id)
	if err != nil {
		if epochs, _ := s.store.Epochs(id, fleet.KindManifest); len(epochs) > 0 {
			s.skipUnreadable(id, err)
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := s.jobs[id]; prev != nil {
		return prev
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// skipUnreadable records a job that cannot be read: counted once in
// serve.manifests_skipped (surfaced on /readyz) and logged once.
func (s *Server) skipUnreadable(id string, cause error) {
	s.mu.Lock()
	seen := s.unreadable[id]
	s.unreadable[id] = true
	s.mu.Unlock()
	if !seen {
		s.reg.Counter("serve.manifests_skipped").Inc()
		s.logf("serve: skipping job %s: %v", id, cause)
	}
}

// readJob reads a published job's latest valid manifest and its spec.
func (s *Server) readJob(id string) (*Job, error) {
	m, err := s.latestManifest(id)
	if err != nil {
		return nil, err
	}
	spec, err := s.store.Spec(id)
	if err != nil {
		return nil, err
	}
	var req JobRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return nil, fmt.Errorf("spec document: %w", err)
	}
	// system is set before the job becomes visible to handlers, which read
	// it without the job lock by the immutability convention.
	j := &Job{ID: id, Request: req, system: m.System}
	j.mu.Lock()
	j.applyManifestLocked(m)
	j.mu.Unlock()
	return j, nil
}

// latestManifest returns the job's newest manifest that decodes.
func (s *Server) latestManifest(id string) (*manifest, error) {
	var m manifest
	_, _, err := s.store.Latest(id, fleet.KindManifest, func(data []byte) error {
		m = manifest{} // a rejected newer epoch must leave no fields behind
		return decodeManifest(data, id, &m)
	})
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// refresh overwrites the job's mutable view from its latest valid
// manifest. Unless held is set it refuses to touch a job this node holds a
// lease on — the local run owns that view.
func (s *Server) refresh(j *Job, held bool) error {
	m, err := s.latestManifest(j.ID)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lease != nil && !held {
		return nil // raced with a local claim
	}
	j.applyManifestLocked(m)
	return nil
}

func (j *Job) applyManifestLocked(m *manifest) {
	if j.state != m.State {
		// A remote transition: restart the local dwell clock so span
		// events emitted here attribute time from when we observed it.
		j.transitioned = time.Now()
	}
	j.state = m.State
	j.err = m.Error
	j.created = m.Created
	j.started = m.Started
	j.finished = m.Finished
	j.resumedFrom = m.ResumedFrom
	j.attempts = m.Attempts
	j.notBefore = time.Time{}
	if m.NotBefore != nil {
		j.notBefore = *m.NotBefore
	}
	j.node = m.Node
	j.cached = m.Cached
}

// budgetSpentLocked reports whether the job has no attempt left: a running
// manifest without a live holder means that attempt died with its node and
// counts too. j.mu must be held.
func (s *Server) budgetSpentLocked(j *Job) bool {
	attempts := j.attempts
	if j.state == StateRunning {
		attempts++
	}
	return attempts >= s.cfg.MaxAttempts
}

// claimRunnable claims jobs for this node's free capacity and enqueues
// them for the worker pool.
func (s *Server) claimRunnable(ctx context.Context) {
	s.mu.Lock()
	draining := s.draining
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	if draining || ctx.Err() != nil {
		return
	}
	free := s.cfg.Workers - int(s.busy.Value()) - len(s.queue)
	now := time.Now()
	for _, id := range ids {
		if free <= 0 {
			return
		}
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			continue
		}
		j.mu.Lock()
		claimable := j.lease == nil && !j.state.Terminal() &&
			// Retry backoff: a failed job stays unclaimed fleet-wide until
			// its not_before passes (except running manifests — an expired
			// lease on those must be stolen regardless, if only to count the
			// dead attempt).
			(j.state != StateQueued || j.notBefore.IsZero() || !now.Before(j.notBefore))
		j.mu.Unlock()
		if !claimable {
			continue
		}
		if s.claimJob(j) {
			free--
		}
	}
}

// claimJob attempts to lease one job and hand it to the local pool. It
// returns true when a worker slot was consumed.
func (s *Server) claimJob(j *Job) bool {
	cs, err := s.store.ClaimState(j.ID)
	if err != nil || cs.Held {
		return false
	}
	lease, err := s.store.Claim(j.ID)
	if err != nil {
		if !errors.Is(err, fleet.ErrUnavailable) {
			s.logf("serve: fleet: claim %s: %v", j.ID, err)
		}
		return false
	}
	j.mu.Lock()
	j.lease = lease
	j.fenced = false
	j.mu.Unlock()
	// Post-claim re-check: the previous holder may have committed a
	// terminal state between our scan and our claim. Never re-run (or
	// cancel) a finished job.
	if err := s.refresh(j, true); err != nil {
		s.logf("serve: fleet: claim %s: manifest: %v", j.ID, err)
		s.dropLease(j, lease)
		return false
	}
	j.mu.Lock()
	prev := j.state
	if prev.Terminal() {
		j.mu.Unlock()
		s.dropLease(j, lease)
		return false
	}
	// A stolen running manifest means the previous holder's execution died
	// with it (crash, hang, partition): that attempt is spent. The counter
	// rides the manifests, so a poison job burns one budget fleet-wide no
	// matter which nodes execute it — or how often one server restarts.
	quarantine := s.budgetSpentLocked(j)
	stolenRunning := prev == StateRunning
	if stolenRunning {
		j.attempts++
	}
	attempts, lastErr := j.attempts, j.err
	j.mu.Unlock()
	if quarantine {
		// Budget exhausted: commit the terminal quarantine manifest at our
		// epoch instead of re-running. No node will claim it again.
		cause := quarantineCause(attempts, fmt.Errorf("attempt died with its node (last error: %s)", orNone(lastErr)))
		s.settle(j, lease, prev, StateQuarantined, cause)
		return false
	}
	// A cancel marker on a not-yet-running job terminates it on the spot.
	if s.store.CancelRequested(j.ID) {
		s.settle(j, lease, prev, StateCancelled, "")
		return false
	}
	j.mu.Lock()
	j.state = StateQueued
	j.node = s.cfg.NodeID
	var claimDwell int64
	if s.lifecycleTracing() {
		claimDwell = j.dwellLocked(time.Now())
	}
	j.mu.Unlock()
	if s.lifecycleTracing() {
		ev := obs.JobClaimed
		if stolenRunning {
			ev = obs.JobStolen
		}
		s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: ev,
			From: string(prev), State: string(StateQueued),
			Attempt: attempts, DwellNs: claimDwell,
			Node: s.cfg.NodeID, Epoch: lease.Epoch})
	}
	if stolenRunning {
		// Make the consumed attempt durable (as queued, at our epoch) before
		// the job runs again, so a chain of node deaths cannot launder the
		// budget away.
		s.persist(j, lease, j.snapshot())
	}
	select {
	case s.queue <- j:
		return true
	default:
		// The pool filled up between the capacity check and here; back out.
		s.dropLease(j, lease)
		return false
	}
}

// settle commits a terminal state for a claimed job that will not run —
// its attempt budget is spent (state quarantined, cause set) or it was
// cancelled before it started — and lets the lease go.
func (s *Server) settle(j *Job, lease *fleet.Lease, from, state State, cause string) {
	detail := cause
	j.mu.Lock()
	j.state = state
	j.err = cause
	j.finished = time.Now()
	j.node = s.cfg.NodeID
	if state == StateCancelled {
		j.cancelRequested = true
		detail = "cancelled by client"
	}
	attempts := j.attempts
	var dwellNs int64
	if s.lifecycleTracing() {
		dwellNs = j.dwellLocked(j.finished)
	}
	snap := j.snapshotLocked()
	j.mu.Unlock()
	s.emitTerminal(j, from, state, attempts, dwellNs, lease.Epoch, detail)
	s.persist(j, lease, snap)
	s.countTerminal(state)
	if state == StateQuarantined {
		s.quarWindow.record(time.Now())
		s.logf("serve: job %s quarantined after %d attempts", j.ID, attempts)
		s.store.RemoveCheckpoints(j.ID)
	}
	s.dropLease(j, lease)
	s.mu.Lock()
	s.jobsByState()
	s.mu.Unlock()
}

// dropLease releases a lease and detaches it from the job. Release
// failures are logged only: once superseded or unwritable the lease dies
// by TTL anyway.
func (s *Server) dropLease(j *Job, l *fleet.Lease) {
	if err := l.Release(); err != nil && !errors.Is(err, fleet.ErrLeaseLost) {
		s.logf("serve: fleet: release %s: %v", l.Job, err)
	}
	j.mu.Lock()
	if j.lease == l {
		j.lease = nil
	}
	j.mu.Unlock()
}

// releaseUnstarted lets go of the leases of claimed jobs no worker took
// before the pool stopped, so a restart (or a peer) claims them at once.
func (s *Server) releaseUnstarted() {
	for {
		select {
		case j := <-s.queue:
			j.mu.Lock()
			lease := j.lease
			j.mu.Unlock()
			if lease != nil {
				s.dropLease(j, lease)
			}
		default:
			return
		}
	}
}

// updateFleetGauges recomputes the fleet summary gauges the claim loop and
// /readyz report: jobs awaiting lease recovery (latest manifest says
// running but no live lease protects them) and the live node count.
func (s *Server) updateFleetGauges() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	recovering := 0
	for _, j := range jobs {
		j.mu.Lock()
		orphan := j.state == StateRunning && j.lease == nil
		j.mu.Unlock()
		if !orphan {
			continue
		}
		// Its holder stopped renewing: the job is down until some node
		// (maybe this one, next scan) claims and resumes it.
		if cs, err := s.store.ClaimState(j.ID); err == nil && !cs.Held {
			recovering++
		}
	}
	live, err := s.store.LiveNodes()
	if err != nil {
		s.logf("serve: fleet: live nodes: %v", err)
	}
	s.fleetRecovering.Set(float64(recovering))
	s.fleetLiveNodes.Set(float64(live))
	if recovering > 0 {
		s.fleetDegraded.Set(1)
	} else {
		s.fleetDegraded.Set(0)
	}
}

// ---- fenced execution plumbing ----

// heartbeat renews the job's lease until stop is closed, watching for
// fencing (a higher epoch appeared: abandon the run immediately) and for
// the job's cancel marker. It runs as a goroutine owned by the job's
// worker; done is closed when it exits.
func (s *Server) heartbeat(cancelJob context.CancelCauseFunc, j *Job, lease *fleet.Lease, stop <-chan struct{}, done chan<- struct{}) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("serve: fleet: heartbeat for %s crashed: %v", j.ID, p)
		}
	}()
	defer close(done)
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if s.store.CancelRequested(j.ID) {
			j.requestCancel(errors.New("cancelled by client (fleet marker)"))
		}
		if err := lease.Renew(); err != nil {
			if errors.Is(err, fleet.ErrLeaseLost) {
				s.fence(j, cancelJob, err)
				return
			}
			// Transient renewal trouble (EIO, ENOSPC): keep trying; the
			// lease only dies for real when its deadline passes.
			s.logf("serve: fleet: renew %s: %v", j.ID, err)
		}
	}
}

// fence marks the job abandoned-by-fencing and stops its run: a higher
// lease epoch exists, so another node owns the job now and nothing more
// may be persisted from here.
func (s *Server) fence(j *Job, cancelJob context.CancelCauseFunc, cause error) {
	j.mu.Lock()
	already := j.fenced
	j.fenced = true
	state := j.state
	epoch := 0
	if j.lease != nil {
		epoch = j.lease.Epoch
	}
	var dwellNs int64
	if !already && s.lifecycleTracing() {
		dwellNs = j.dwellLocked(time.Now())
	}
	j.mu.Unlock()
	if already {
		return
	}
	s.reg.Counter("serve.jobs_fenced").Inc()
	s.logf("serve: fleet: job %s fenced: %v", j.ID, cause)
	if s.lifecycleTracing() {
		s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: obs.JobFenced,
			From: string(state), DwellNs: dwellNs, Node: s.cfg.NodeID,
			Epoch: epoch, Detail: cause.Error()})
	}
	if cancelJob != nil {
		cancelJob(cause)
	}
}

// checkpointing wires the job's synthesis options for fenced,
// fault-injectable checkpointing: resume comes from the newest epoch whose
// checkpoint still loads (corrupt epochs degrade to the last good one),
// and every save lands at this lease's epoch behind a fence check.
func (s *Server) checkpointing(j *Job, lease *fleet.Lease, opts *synth.Options) error {
	opts.CheckpointPath = lease.StatePath(fleet.KindCheckpoint)
	opts.CheckpointSave = func(p string, cp *runctl.Checkpoint) error {
		return lease.Fenced(func() error { return runctl.SaveFS(s.cfg.FS, p, cp) })
	}
	var latest *runctl.Checkpoint
	path, epoch, err := s.store.LatestPath(j.ID, fleet.KindCheckpoint, func(p string) error {
		cp, lerr := runctl.Load(p)
		if lerr != nil {
			return lerr
		}
		latest = cp
		return nil
	})
	if err != nil {
		if errors.Is(err, fleet.ErrNoState) {
			return nil // fresh run
		}
		return err
	}
	if epoch != lease.Epoch {
		// Re-home the inherited checkpoint at our epoch so save and resume
		// share one path.
		data, rerr := s.cfg.FS.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if werr := lease.Write(fleet.KindCheckpoint, data); werr != nil {
			return werr
		}
	}
	opts.Resume = true
	j.mu.Lock()
	j.resumedFrom = latest.Snapshot.Generation
	j.mu.Unlock()
	s.reg.Counter("serve.jobs_resumed").Inc()
	return nil
}
