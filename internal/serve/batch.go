package serve

import (
	"time"

	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
)

// runBatcher is one of a version's Config.Workers batch workers, which all
// receive from the version's one queue. A worker blocks until a request is
// queued, takes whatever else is already queued (up to BatchSize),
// classifies that batch itself, and only then looks at the queue again.
// There is no timer: at low load a request waits only for compute, and
// under load the queue fills while every worker is busy, so batches grow on
// their own and each version has at most Workers batches in flight.
// Batches never mix versions — each model has its own queue and workers. A
// worker exits once retire closes the queue and no row is left in it.
func (m *model) runBatcher() {
	defer m.batcher.Done()
	for p := range m.queue {
		batch := []*pending{p}
	fill:
		for len(batch) < m.s.cfg.BatchSize {
			// Another worker may take a queued row first, so never block.
			select {
			case p, ok := <-m.queue:
				if !ok {
					break fill
				}
				batch = append(batch, p)
			default:
				break fill
			}
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

// flushBatch classifies one batch on its worker's goroutine, row by row:
// core.Decide evaluates every table once per row for both the class and
// the confidence. Delivery into the buffered done channels never blocks, so
// a request that already gave up on its deadline cannot stall the batch.
//
// A panic in the flush is contained into 500s, with the stack in the run
// log, and the worker moves on to the next batch. Nothing else bounds a
// flush: a batch that outlives its requests' deadlines has already been
// answered 504 by their handlers, and requests queued behind it go to the
// version's other workers, or, when every worker is held, get a 504 at
// their own deadlines.
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
	for _, p := range batch {
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
	for _, p := range batch {
		class, conf := m.art.Classifier.Decide(p.q)
		deliver(p, result{class: class, confidence: conf})
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
		s.batchLog.Lock()
		s.batchSeq++
		s.cfg.RunLog.Emit(obs.RunRecord{
			Experiment: "serve.batch",
			Dataset:    m.version,
			Test:       s.batchSeq,
			Config:     map[string]float64{"batch_size": float64(len(batch)), "workers": float64(s.cfg.Workers)},
			PhasesMS:   map[string]float64{"serve/classify": float64(classifyNS) / float64(time.Millisecond)},
			TraceID:    flush.TraceIDString(),
			SpanID:     flush.SpanIDString(),
		})
		s.batchLog.Unlock()
	}
}
