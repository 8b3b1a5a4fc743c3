package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bstc/internal/bitset"
	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
)

// errWatchdog fails a batch whose flush outlived WatchdogFactor request
// timeouts; handlers map it to 504.
var errWatchdog = errors.New("serve: batch watchdog expired")

// runBatcher is a version's one batch worker. It blocks until a request is
// queued, takes whatever else is already queued (up to BatchSize),
// classifies that batch itself, and only then looks at the queue again. There is no timer: at low load a request waits only for
// compute, and under load the queue fills while the worker is busy, so
// batches grow on their own and each version has at most one batch in
// flight. Batches never mix versions — each model has its own queue and
// worker. The worker exits once retire closes the queue and it has
// classified every row still in it.
func (m *model) runBatcher() {
	defer m.batcher.Done()
	for p := range m.queue {
		batch := []*pending{p}
		// The worker is the queue's only receiver, so every row len
		// reports is there to take without blocking.
		for len(batch) < m.s.cfg.BatchSize && len(m.queue) > 0 {
			batch = append(batch, <-m.queue)
		}
		m.flushBatch(batch)
	}
}

// deliver hands res to p without ever blocking: done is buffered with one
// slot and each request receives at most once, so the first delivery —
// result, watchdog failure, or panic failure — wins and any later one is
// dropped on the floor.
func deliver(p *pending, res result) {
	select {
	case p.done <- res:
	default:
	}
}

// failBatch delivers err to every request of the batch, failing and
// ending any batch_wait spans so errored traces land in the recorder's
// error ring instead of leaking as active.
func failBatch(batch []*pending, err error) {
	for _, p := range batch {
		p.wait.SetError(err)
		p.wait.End()
		deliver(p, result{err: err})
	}
}

// flushBatch classifies one batch on the worker goroutine. The rows go
// through the parallel single-pass kernel (core.DecideBatchParallel), which
// evaluates every table once per request for both the class and the
// confidence. Delivery into the buffered done channels never blocks, so a
// request that already gave up on its deadline cannot stall the batch.
//
// The flush is fenced two ways: a panic is contained into 500s with the
// stack in the run log, and a watchdog fails the batch with 504s — plus an
// all-goroutine stack dump — if the flush outlives WatchdogFactor request
// timeouts. Either way the worker moves on to the next batch once the
// flush returns. Requests queued behind a wedged flush wait for it and get
// a 504 at their own deadline.
func (m *model) flushBatch(batch []*pending) {
	s := m.s
	if s.cfg.WatchdogFactor > 0 {
		limit := time.Duration(s.cfg.WatchdogFactor) * s.cfg.RequestTimeout
		wd := time.AfterFunc(limit, func() { m.watchdogFire(batch, limit) })
		defer wd.Stop()
	}
	defer func() {
		if r := recover(); r != nil {
			perr := fault.Recovered("serve.batch", r)
			s.met.batchPanics.Inc()
			s.emitFailure("serve.batch", perr.Error(), perr.Stack)
			failBatch(batch, perr)
		}
	}()
	if err := fault.Hit("serve.batch"); err != nil {
		s.emitFailure("serve.batch", err.Error(), nil)
		failBatch(batch, err)
		return
	}
	enq := obs.Now()
	// End every request's batch_wait span, collect the batch's trace
	// IDs, and hang the flush span off the first traced request (the
	// one that has waited longest).
	var flush *trace.Span
	var traceIDs []string
	rows := make([]*bitset.Set, len(batch))
	for i, p := range batch {
		rows[i] = p.q
		s.met.queueWait.Record(int64(enq.Sub(p.enqueued)))
		if p.wait != nil {
			p.wait.End()
			traceIDs = append(traceIDs, p.wait.TraceIDString())
			if flush == nil {
				flush = p.wait.StartChild("serve/batch_flush")
				flush.SetAttr("batch_size", len(batch))
				flush.SetAttr("workers", s.cfg.Workers)
				flush.SetAttr("model_version", m.version)
			}
		}
	}

	ph := obs.NewPhasesIn(s.cfg.Registry)
	span := ph.Start("serve/classify")
	classify := flush.StartChild("serve/classify")
	preds, confs := m.art.Classifier.DecideBatchParallel(rows, s.cfg.Workers)
	for i, p := range batch {
		deliver(p, result{class: preds[i], confidence: confs[i]})
	}
	classify.End()
	classifyNS := span.End()
	flush.End()

	s.met.batches.Inc()
	s.met.batchSamples.Add(int64(len(batch)))
	s.met.batchSize.Record(int64(len(batch)))
	m.met.batches.Inc()
	m.met.batchSamples.Add(int64(len(batch)))
	m.met.batchSize.Record(int64(len(batch)))
	m.recordBatch(len(batch), preds, classifyNS, flush, traceIDs)
}

// watchdogFire is the batch watchdog's timer body: count it, dump every
// goroutine's stack to the run log (the wedged worker is in there), and fail
// the batch so its callers stop waiting.
func (m *model) watchdogFire(batch []*pending, limit time.Duration) {
	s := m.s
	s.met.watchdogs.Inc()
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	s.emitFailure("serve.watchdog",
		fmt.Sprintf("batch of %d (version %s) still flushing after %v", len(batch), m.version, limit), buf)
	failBatch(batch, errWatchdog)
}

// BatchRecord is one flushed micro-batch as reported by /runlogz: size,
// the version that classified it, classify wall-clock, the per-class
// prediction counts, and the trace IDs of the sampled requests it carried.
type BatchRecord struct {
	Seq        int64          `json:"seq"`
	Version    string         `json:"version,omitempty"`
	Size       int            `json:"size"`
	ClassifyMS float64        `json:"classify_ms"`
	Classes    map[string]int `json:"classes,omitempty"`
	TraceIDs   []string       `json:"trace_ids,omitempty"`
}

// recordBatch appends the batch to the /runlogz ring and, when configured,
// emits an obs.RunRecord to the run log, stamped with the flush span's
// identity when the batch was traced.
func (m *model) recordBatch(size int, preds []int, classify time.Duration, flush *trace.Span, traceIDs []string) {
	s := m.s
	counts := make(map[string]int)
	for _, c := range preds {
		counts[m.art.Classifier.ClassNames[c]]++
	}
	rec := BatchRecord{
		Version:    m.version,
		Size:       size,
		ClassifyMS: float64(classify) / float64(time.Millisecond),
		Classes:    counts,
		TraceIDs:   traceIDs,
	}
	rec.Seq = s.ring.add(rec)
	if s.cfg.RunLog != nil {
		s.cfg.RunLog.Emit(obs.RunRecord{
			Experiment: "serve.batch",
			Dataset:    m.version,
			Test:       int(rec.Seq),
			Config:     map[string]float64{"batch_size": float64(size), "workers": float64(s.cfg.Workers)},
			PhasesMS:   map[string]float64{"serve/classify": rec.ClassifyMS},
			TraceID:    flush.TraceIDString(),
			SpanID:     flush.SpanIDString(),
		})
	}
}

// batchRing keeps the most recent batch records for /runlogz.
type batchRing struct {
	mu   sync.Mutex
	next int64
	buf  []BatchRecord
	size int
}

func newBatchRing(n int) *batchRing {
	return &batchRing{buf: make([]BatchRecord, 0, n), size: n}
}

// add stores rec and returns its sequence number (total batches so far,
// 1-based).
func (r *batchRing) add(rec BatchRecord) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	rec.Seq = r.next
	if len(r.buf) < r.size {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[int((r.next-1))%r.size] = rec
	}
	return r.next
}

// records returns the retained batches, oldest first.
func (r *batchRing) records() []BatchRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BatchRecord, 0, len(r.buf))
	if len(r.buf) < r.size {
		out = append(out, r.buf...)
		return out
	}
	start := int(r.next) % r.size
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}
