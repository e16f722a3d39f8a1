package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vdnn"
)

// The async job layer: a sweep submitted to POST /v1/jobs is accepted with
// 202 + an id, executed by a bounded pool of job workers, and its points
// stream back incrementally from GET /v1/jobs/{id} as NDJSON. Jobs share
// the server's execution budget with synchronous requests — a running job
// holds one admission slot while it simulates — and obey the same drain
// contract: draining rejects new submissions (503 "draining") but finishes
// every job already accepted. DELETE /v1/jobs/{id} cancels a job through
// the engine's ref-counted cancellation: queued points are skipped,
// the in-flight simulation stops at its next per-layer check (unless a
// coalesced synchronous request still wants it).

const (
	// defaultJobQueueDepth bounds accepted-but-not-started jobs.
	defaultJobQueueDepth = 16
	// maxRetainedJobs bounds the finished-job history kept for late GETs;
	// the oldest finished jobs are pruned first, at submission time.
	maxRetainedJobs = 256
)

// JobStatus is the lifecycle of an async job.
type JobStatus string

const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobCanceled JobStatus = "canceled"
)

// JobAccepted is the 202 body of POST /v1/jobs.
type JobAccepted struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Points int       `json:"points"`
	// Stream is the path streaming this job's results (NDJSON).
	Stream string `json:"stream"`
}

// JobEvent is one NDJSON line of GET /v1/jobs/{id}: a completed sweep point
// ("point", in job order, with either a result or an error), then exactly
// one trailing "summary".
type JobEvent struct {
	Type  string `json:"type"` // "point"
	Index int    `json:"index"`
	// Result is the point's simulation result; nil when the point failed.
	Result *SimResponse `json:"result,omitempty"`
	// Error and Code describe a failed or skipped point, using the same
	// code taxonomy as synchronous responses ("canceled", "deadline", ...).
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// JobSummary is the final NDJSON line of a job stream, and the body of a
// non-streaming status lookup.
type JobSummary struct {
	Type      string    `json:"type"` // "summary"
	ID        string    `json:"id"`
	Status    JobStatus `json:"status"`
	Points    int       `json:"points"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	Canceled  int       `json:"canceled"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// JobStats counts the job subsystem; exposed under "jobs" on GET /v1/stats
// and as vdnn_jobs_* on /metrics.
type JobStats struct {
	// Workers is the configured job-worker count.
	Workers int `json:"workers"`
	// QueueDepth is the number of accepted jobs waiting for a worker — a
	// gauge.
	QueueDepth int64 `json:"queue_depth"`
	// Running is the number of jobs currently executing — a gauge.
	Running int64 `json:"running"`
	// Submitted counts accepted jobs; Rejected counts submissions refused
	// for a full job queue (503 "overloaded"). Draining-time rejections are
	// counted in ServeStats.RejectedDraining alongside synchronous ones.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	// Completed counts jobs that ran to the end of their point list;
	// Canceled counts jobs finalized after their context was canceled.
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	// Per-point outcomes across all jobs.
	PointsCompleted int64 `json:"points_completed"`
	PointsFailed    int64 `json:"points_failed"`
	PointsCanceled  int64 `json:"points_canceled"`
	// Retained is the number of jobs currently addressable by GET — a gauge.
	Retained int `json:"retained"`
}

// jobPoint is one sweep point's slot: the runner fills resp/errMsg/code and
// then closes done; streamers read only after done is closed.
type jobPoint struct {
	done   chan struct{}
	resp   *SimResponse
	errMsg string
	code   string
}

// job is one accepted sweep.
type job struct {
	id        string
	submitted time.Time

	reqs  []SimRequest
	batch []vdnn.BatchJob

	ctx    context.Context
	cancel context.CancelFunc

	points []jobPoint
	doneCh chan struct{} // closed at finalization, after the last point

	mu        sync.Mutex
	status    JobStatus
	finished  time.Time
	completed int
	failed    int
	canceled  int
}

func (j *job) summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return JobSummary{
		Type:      "summary",
		ID:        j.id,
		Status:    j.status,
		Points:    len(j.points),
		Completed: j.completed,
		Failed:    j.failed,
		Canceled:  j.canceled,
		ElapsedMS: float64(end.Sub(j.submitted)) / float64(time.Millisecond),
	}
}

// jobRunner owns the worker pool, the pending queue and the job registry.
type jobRunner struct {
	s          *Server
	workers    int
	root       context.Context
	cancelRoot context.CancelFunc
	pending    chan *job

	mu         sync.Mutex
	cond       *sync.Cond // broadcast when unfinished decrements
	closed     bool
	unfinished int
	byID       map[string]*job
	order      []string // insertion order, for retention pruning

	idPrefix string
	idSeq    atomic.Int64

	queued          atomic.Int64
	running         atomic.Int64
	submitted       atomic.Int64
	rejected        atomic.Int64
	completed       atomic.Int64
	canceled        atomic.Int64
	pointsCompleted atomic.Int64
	pointsFailed    atomic.Int64
	pointsCanceled  atomic.Int64
}

func newJobRunner(s *Server, workers, queueDepth int) *jobRunner {
	var pfx [4]byte
	_, _ = rand.Read(pfx[:])
	root, cancel := context.WithCancel(context.Background())
	jr := &jobRunner{
		s:          s,
		workers:    workers,
		root:       root,
		cancelRoot: cancel,
		pending:    make(chan *job, queueDepth),
		byID:       make(map[string]*job),
		idPrefix:   hex.EncodeToString(pfx[:]),
	}
	jr.cond = sync.NewCond(&jr.mu)
	// Workers start eagerly: their goroutines belong to the server's
	// baseline, not to any request, which keeps goroutine accounting flat
	// under churn.
	for i := 0; i < workers; i++ {
		go jr.worker()
	}
	return jr
}

func (jr *jobRunner) stats() JobStats {
	jr.mu.Lock()
	retained := len(jr.byID)
	jr.mu.Unlock()
	return JobStats{
		Workers:         jr.workers,
		QueueDepth:      jr.queued.Load(),
		Running:         jr.running.Load(),
		Submitted:       jr.submitted.Load(),
		Rejected:        jr.rejected.Load(),
		Completed:       jr.completed.Load(),
		Canceled:        jr.canceled.Load(),
		PointsCompleted: jr.pointsCompleted.Load(),
		PointsFailed:    jr.pointsFailed.Load(),
		PointsCanceled:  jr.pointsCanceled.Load(),
		Retained:        retained,
	}
}

func (jr *jobRunner) get(id string) *job {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.byID[id]
}

// submit registers and enqueues a job. It returns an error message suitable
// for a 503 "overloaded" body when the job queue is full, and ok=false.
func (jr *jobRunner) submit(j *job) (ok bool) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.closed {
		return false
	}
	select {
	case jr.pending <- j:
	default:
		return false
	}
	jr.queued.Add(1)
	jr.submitted.Add(1)
	jr.unfinished++
	jr.pruneLocked()
	jr.byID[j.id] = j
	jr.order = append(jr.order, j.id)
	return true
}

// pruneLocked drops the oldest FINISHED jobs beyond the retention bound.
// Unfinished jobs are never pruned; they are bounded by queue + workers.
func (jr *jobRunner) pruneLocked() {
	for len(jr.byID) >= maxRetainedJobs {
		pruned := false
		for i, id := range jr.order {
			j := jr.byID[id]
			if j == nil {
				jr.order = append(jr.order[:i], jr.order[i+1:]...)
				pruned = true
				break
			}
			j.mu.Lock()
			finished := j.status == JobDone || j.status == JobCanceled
			j.mu.Unlock()
			if finished {
				delete(jr.byID, id)
				jr.order = append(jr.order[:i], jr.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return
		}
	}
}

func (jr *jobRunner) worker() {
	for j := range jr.pending {
		jr.queued.Add(-1)
		jr.run(j)
	}
}

// run executes one job's points in order, sequentially: order is what makes
// the NDJSON stream incremental, and cross-job parallelism comes from the
// worker pool. The job holds one admission execution slot for its whole
// run, so jobs and synchronous requests share the concurrency budget.
func (jr *jobRunner) run(j *job) {
	jr.running.Add(1)
	j.mu.Lock()
	j.status = JobRunning
	j.mu.Unlock()

	slot := jr.s.adm.acquire(j.ctx) == nil
	for i := range j.points {
		p := &j.points[i]
		if err := j.ctx.Err(); err != nil {
			// Canceled (DELETE, drain hard-cancel) or past its deadline:
			// skip the remaining points, marking each with the taxonomy
			// code so stream consumers see why.
			_, p.code = simErrorStatus(err)
			p.errMsg = fmt.Sprintf("job %s: %v", j.id, err)
			jr.finishPoint(j, p)
			continue
		}
		res, err := jr.s.sim.Run(j.ctx, j.batch[i].Net, j.batch[i].Cfg)
		if err == nil {
			var out SimResponse
			if out, err = response(j.reqs[i], res); err == nil {
				p.resp = &out
			}
		}
		if err != nil {
			_, p.code = simErrorStatus(err)
			p.errMsg = err.Error()
		}
		jr.finishPoint(j, p)
	}

	if slot {
		jr.s.adm.releaseSlot()
	}
	j.mu.Lock()
	if j.ctx.Err() != nil && j.canceled > 0 {
		j.status = JobCanceled
	} else {
		j.status = JobDone
	}
	final := j.status
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the job context's resources
	// Count the job before closing doneCh: a client that saw the summary
	// must find it in the stats.
	if final == JobCanceled {
		jr.canceled.Add(1)
	} else {
		jr.completed.Add(1)
	}
	jr.running.Add(-1)
	close(j.doneCh)
	jr.s.log.Info("job finished", "job", j.id, "status", string(final),
		"points", len(j.points))

	jr.mu.Lock()
	jr.unfinished--
	jr.cond.Broadcast()
	jr.mu.Unlock()
}

// finishPoint publishes one point's outcome and updates the tallies.
func (jr *jobRunner) finishPoint(j *job, p *jobPoint) {
	j.mu.Lock()
	switch {
	case p.code == "":
		j.completed++
		jr.pointsCompleted.Add(1)
	case p.code == "canceled" || p.code == "deadline":
		j.canceled++
		jr.pointsCanceled.Add(1)
	default:
		j.failed++
		jr.pointsFailed.Add(1)
	}
	j.mu.Unlock()
	close(p.done)
}

// drainJobs blocks until every accepted job has finished, or ctx fires.
func (jr *jobRunner) drainJobs(ctx context.Context) error {
	done := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		// Wake the waiter so it can observe ctx and give up.
		jr.mu.Lock()
		jr.cond.Broadcast()
		jr.mu.Unlock()
	})
	defer stop()
	go func() {
		jr.mu.Lock()
		for jr.unfinished > 0 && ctx.Err() == nil {
			jr.cond.Wait()
		}
		jr.mu.Unlock()
		close(done)
	}()
	<-done
	return ctx.Err()
}

// close stops accepting jobs and cancels everything in flight.
func (jr *jobRunner) close() {
	jr.mu.Lock()
	if !jr.closed {
		jr.closed = true
		close(jr.pending)
	}
	jr.mu.Unlock()
	jr.cancelRoot()
}

// DrainJobs waits until every accepted async job has finished — the
// complement of StartDrain, which stops new submissions. Returns ctx's
// error if it fires first.
func (s *Server) DrainJobs(ctx context.Context) error { return s.jobs.drainJobs(ctx) }

// CancelJobs cancels every queued and running async job (they finalize as
// "canceled", with their pending points marked canceled) and stops the job
// workers. Used by the daemon's shutdown path after the drain budget
// expires, and by tests.
func (s *Server) CancelJobs() { s.jobs.close() }

// Close releases the server's background resources (the job workers). The
// server must not serve requests afterwards.
func (s *Server) Close() { s.jobs.close() }

// --- HTTP handlers ----------------------------------------------------------

// handleJobSubmit is POST /v1/jobs: a sweep body (same schema as /v1/sweep),
// answered 202 with a job id before any simulation runs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.counters.rejectedDraining.Add(1)
		w.Header().Set("Retry-After", "5")
		writeErrorCode(w, http.StatusServiceUnavailable, "draining",
			fmt.Errorf("shutting down: not accepting new jobs"))
		return
	}
	reqs, batch, deadlineMS, ok := s.parseSweep(w, r)
	if !ok {
		return
	}

	// The job's context roots at the runner (so shutdown can hard-cancel
	// it), not at the HTTP request, which ends at the 202. The deadline —
	// client-supplied, clamped to the server maximum, which also caps
	// deadline-less jobs — covers queue wait plus execution.
	d := s.maxDeadline
	if deadlineMS > 0 {
		if cd := time.Duration(deadlineMS) * time.Millisecond; d <= 0 || cd < d {
			d = cd
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if d > 0 {
		ctx, cancel = context.WithTimeout(s.jobs.root, d)
	} else {
		ctx, cancel = context.WithCancel(s.jobs.root)
	}

	j := &job{
		id:        fmt.Sprintf("j-%s-%d", s.jobs.idPrefix, s.jobs.idSeq.Add(1)),
		submitted: time.Now(),
		reqs:      reqs,
		batch:     batch,
		ctx:       ctx,
		cancel:    cancel,
		points:    make([]jobPoint, len(batch)),
		doneCh:    make(chan struct{}),
		status:    JobQueued,
	}
	for i := range j.points {
		j.points[i].done = make(chan struct{})
	}
	if !s.jobs.submit(j) {
		cancel()
		s.jobs.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusServiceUnavailable, "overloaded",
			fmt.Errorf("job queue full (%d workers + %d waiting): retry with backoff", s.jobs.workers, cap(s.jobs.pending)))
		return
	}
	s.log.Info("job accepted", "job", j.id, "points", len(j.points))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(JobAccepted{
		ID:     j.id,
		Status: JobQueued,
		Points: len(j.points),
		Stream: "/v1/jobs/" + j.id,
	})
}

// handleJobStream is GET /v1/jobs/{id}: an NDJSON stream of the job's
// completed points, in order, as they finish — then one summary line. A job
// that already finished streams everything immediately, so the endpoint
// doubles as the result fetch.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, "unknown_job",
			fmt.Errorf("unknown job %q (finished jobs are retained for the last %d)", r.PathValue("id"), maxRetainedJobs))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w) // no indent: one event per line
	for i := range j.points {
		select {
		case <-j.points[i].done:
		case <-r.Context().Done():
			return // client gone; the job itself keeps running
		}
		p := &j.points[i]
		ev := JobEvent{Type: "point", Index: i, Result: p.resp, Error: p.errMsg, Code: p.code}
		if err := enc.Encode(ev); err != nil {
			return
		}
		_ = rc.Flush()
	}
	select {
	case <-j.doneCh:
	case <-r.Context().Done():
		return
	}
	_ = enc.Encode(j.summary())
}

// handleJobDelete is DELETE /v1/jobs/{id}: cancel. Queued points are
// skipped; the in-flight simulation stops at its next per-layer check via
// the engine's ref-counted cancellation (it keeps running only if a
// synchronous request coalesced onto it and still wants the result).
// Canceling a finished job is a no-op answered with its final summary.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, "unknown_job",
			fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.cancel()
	s.log.Info("job cancel requested", "job", j.id)
	writeJSON(w, j.summary())
}

// handleJobList is GET /v1/jobs: the summaries of every retained job, in
// submission order.
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	s.jobs.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs.order))
	for _, id := range s.jobs.order {
		if j := s.jobs.byID[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.jobs.mu.Unlock()
	out := struct {
		Jobs []JobSummary `json:"jobs"`
	}{Jobs: make([]JobSummary, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.summary())
	}
	writeJSON(w, out)
}
