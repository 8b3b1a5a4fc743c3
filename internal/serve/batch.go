package serve

import (
	"time"

	"bstc/internal/bitset"
	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
)

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
// slot, so the worker never waits on a handler that already answered 504
// at its deadline, and the first delivery — result or failure of a batch
// that panicked — wins; any later one is dropped on the floor.
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
// A panic in the flush is contained into 500s, with the stack in the run
// log, and the worker moves on to the next batch. Nothing else bounds a
// flush: a batch that outlives its requests' deadlines has already been
// answered 504 by their handlers, and requests queued behind it wait for
// the worker and get a 504 at their own deadlines.
func (m *model) flushBatch(batch []*pending) {
	s := m.s
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
	flush.SetAttr("trace_ids", traceIDs)

	classify := flush.StartLayer(s.cfg.Registry, "serve/classify")
	preds, confs := m.art.Classifier.DecideBatchParallel(rows, s.cfg.Workers)
	for i, p := range batch {
		deliver(p, result{class: preds[i], confidence: confs[i]})
	}
	classifyNS := classify.End()
	flush.End()

	s.met.batches.Inc()
	s.met.batchSamples.Add(int64(len(batch)))
	s.met.batchSize.Record(int64(len(batch)))
	m.met.batches.Inc()
	m.met.batchSamples.Add(int64(len(batch)))
	m.met.batchSize.Record(int64(len(batch)))
	if s.cfg.RunLog != nil {
		s.cfg.RunLog.Emit(obs.RunRecord{
			Experiment: "serve.batch",
			Dataset:    m.version,
			Test:       int(s.batchSeq.Add(1)),
			Config:     map[string]float64{"batch_size": float64(len(batch)), "workers": float64(s.cfg.Workers)},
			PhasesMS:   map[string]float64{"serve/classify": float64(classifyNS) / float64(time.Millisecond)},
			TraceID:    flush.TraceIDString(),
			SpanID:     flush.SpanIDString(),
		})
	}
}
