package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Tracer collects hierarchical wall-clock spans. Construct with
// NewTracer and install it into a context with ContextWithTracer; code
// instrumented with StartSpan is a no-op (nil span, zero allocations)
// when the context carries no tracer.
//
// Tracer is safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is one timed operation. A nil *Span is a valid no-op handle.
type Span struct {
	tracer   *Tracer
	parent   *Span
	name     string
	start    time.Time
	dur      time.Duration
	children []*Span
}

// spanCtx is what lives in a context: the tracer plus the current span
// (nil at the root).
type spanCtx struct {
	tracer *Tracer
	span   *Span
}

type tracerKey struct{}

// ContextWithTracer returns a context whose StartSpan calls record into t.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, &spanCtx{tracer: t})
}

// StartSpan opens a span named name as a child of the context's current
// span. It returns a derived context carrying the new span plus the span
// itself; call End on the span when the operation finishes. When ctx
// carries no tracer, the original context and a nil span are returned and
// nothing is recorded or allocated.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sc, ok := ctx.Value(tracerKey{}).(*spanCtx)
	if !ok || sc.tracer == nil {
		return ctx, nil
	}
	s := &Span{tracer: sc.tracer, parent: sc.span, name: name, start: time.Now()}
	t := sc.tracer
	t.mu.Lock()
	if s.parent != nil {
		s.parent.children = append(s.parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.mu.Unlock()
	return context.WithValue(ctx, tracerKey{}, &spanCtx{tracer: t, span: s}), s
}

// End closes the span, fixing its duration. Safe on a nil span; a second
// End keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = time.Nanosecond
	}
	s.tracer.mu.Lock()
	if s.dur == 0 {
		s.dur = d
	}
	s.tracer.mu.Unlock()
}

// agg is one aggregated node of the rendered span tree: every same-named
// sibling collapses into one line with a count and total duration.
type agg struct {
	name     string
	count    int
	total    time.Duration
	children map[string]*agg
	childSeq []string
}

func aggregate(into map[string]*agg, seq *[]string, spans []*Span) {
	for _, s := range spans {
		a := into[s.name]
		if a == nil {
			a = &agg{name: s.name, children: make(map[string]*agg)}
			into[s.name] = a
			*seq = append(*seq, s.name)
		}
		a.count++
		d := s.dur
		if d == 0 { // still open: count elapsed so far
			d = time.Since(s.start)
		}
		a.total += d
		aggregate(a.children, &a.childSeq, s.children)
	}
}

// WriteReport renders the aggregated span tree: same-named siblings are
// collapsed into one line carrying invocation count, total duration, and
// mean. Child lines are indented beneath their parent.
func (t *Tracer) WriteReport(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	top := make(map[string]*agg)
	var seq []string
	aggregate(top, &seq, roots)
	t.mu.Unlock()

	var lines []string
	var walk func(m map[string]*agg, order []string, depth int)
	walk = func(m map[string]*agg, order []string, depth int) {
		// Stable order: first-seen.
		for _, name := range order {
			a := m[name]
			mean := a.total / time.Duration(a.count)
			lines = append(lines, fmt.Sprintf("%s%-*s %6d× total %-12s mean %s",
				strings.Repeat("  ", depth), 32-2*depth, a.name, a.count,
				a.total.Round(time.Microsecond), mean.Round(time.Microsecond)))
			walk(a.children, a.childSeq, depth+1)
		}
	}
	walk(top, seq, 0)
	for _, l := range lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
}

// Roots returns a copy of the recorded root spans (for tests).
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}
