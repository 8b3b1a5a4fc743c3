package trace

import (
	"context"
	"time"

	"bstc/internal/obs"
)

// Layer times one layer of the pipeline under one name. End records the
// duration in the registry's "phase.<name>" histogram and, when the layer
// was started under a sampled span, ends the child span of the same name
// that StartLayer opened. The embedded span (nil when unsampled) takes
// attributes, events and errors; its methods are no-ops on nil.
//
// A Layer is a value: starting and ending one on an unsampled path
// allocates nothing, with a nil or a live registry.
type Layer struct {
	*Span
	reg   *obs.Registry
	name  string
	start time.Time
}

// StartLayer opens the layer name under the span ctx carries and returns
// ctx carrying the layer's span, so layers started below it nest. An
// unsampled ctx is returned unchanged.
func StartLayer(ctx context.Context, reg *obs.Registry, name string) (context.Context, Layer) {
	l := FromContext(ctx).StartLayer(reg, name)
	return ContextWith(ctx, l.Span), l
}

// StartLayer opens the layer name under s, for code that holds a span
// handle instead of a context (a batch flush). Safe on the nil span: the
// layer then only times and records its histogram.
func (s *Span) StartLayer(reg *obs.Registry, name string) Layer {
	l := Layer{Span: s.StartChild(name), reg: reg, name: name}
	if l.Span == nil {
		l.start = obs.Now()
	}
	return l
}

// Name returns the layer's name, the key its duration is reported under.
func (l Layer) Name() string { return l.name }

// End stops the layer, records its duration in phase.<name>, ends its span
// and returns the duration. End a layer once.
func (l Layer) End() time.Duration {
	var d time.Duration
	if l.Span != nil {
		d = l.Span.End()
	} else {
		d = obs.Now().Sub(l.start)
	}
	l.reg.Phase(l.name).Record(int64(d))
	return d
}
