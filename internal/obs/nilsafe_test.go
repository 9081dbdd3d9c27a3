package obs_test

import (
	"context"
	"io"
	"testing"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
)

// The whole observability layer rests on one contract: a nil handle of
// any type is a valid no-op, so instrumented code never branches on
// "is observation enabled". This table pins that contract for every
// handle the package hands out — Counter, Gauge, Histogram, Span,
// Registry, Tracer, and the eventlog emitter — so it is enforced by
// tests, not convention.
func TestNilHandlesAreNoOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		use  func()
	}{
		{"counter", func() {
			var c *obs.Counter
			c.Inc()
			c.Add(5)
			if c.Value() != 0 {
				t.Error("nil counter value != 0")
			}
		}},
		{"gauge", func() {
			var g *obs.Gauge
			g.Set(3.5)
			if g.Value() != 0 {
				t.Error("nil gauge value != 0")
			}
		}},
		{"histogram", func() {
			var h *obs.Histogram
			h.Observe(1)
			h.ObserveSince(time.Now())
			h.ObserveDuration(time.Second)
			if h.Count() != 0 || h.Sum() != 0 {
				t.Error("nil histogram not empty")
			}
			h.Quantile(0.5) // NaN, but must not panic
		}},
		{"span", func() {
			var s *obs.Span
			s.End()
			s.End() // double-End must also hold on nil
		}},
		{"span_from_untraced_context", func() {
			ctx, s := obs.StartSpan(context.Background(), "op")
			if s != nil {
				t.Error("untraced context returned a live span")
			}
			if ctx != context.Background() {
				t.Error("untraced context was rewrapped")
			}
			s.End()
		}},
		{"registry", func() {
			var r *obs.Registry
			r.Counter("x_total", "h").Inc()
			r.Gauge("x", "h").Set(1)
			r.Histogram("x_seconds", "h", obs.DefSecondsBuckets).Observe(1)
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("nil registry WritePrometheus: %v", err)
			}
			r.WriteSummary(io.Discard)
			r.PublishExpvar("nilsafe_registry")
			if len(r.Snapshot()) != 0 {
				t.Error("nil registry snapshot not empty")
			}
		}},
		{"tracer", func() {
			var tr *obs.Tracer
			tr.WriteReport(io.Discard)
			if len(tr.Roots()) != 0 {
				t.Error("nil tracer has roots")
			}
		}},
		{"report", func() {
			obs.WriteReport(io.Discard, nil, nil)
		}},
		{"eventlog_log", func() {
			var l *eventlog.Log
			if l.Recorder("run") != nil {
				t.Error("nil log handed out a live recorder")
			}
			l.Append(nil)
			l.EnableMetrics(nil)
			if l.Timing() {
				t.Error("nil log claims timing mode")
			}
			if ev, by, dr := l.Stats(); ev != 0 || by != 0 || dr != 0 {
				t.Error("nil log stats not zero")
			}
			if l.Close() != nil {
				t.Error("nil log Close errored")
			}
		}},
		{"eventlog_recorder", func() {
			var r *eventlog.Recorder
			r.Emit(eventlog.Event{Type: eventlog.TypeDecide})
			r.SetWindow(3)
			if r.Run() != "" || r.Timing() {
				t.Error("nil recorder not inert")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.use() })
	}
}

// The nil paths above must also be allocation-free: disabled
// observability should cost a nil check, nothing more.
func TestNilHandlesZeroAlloc(t *testing.T) {
	var (
		c   *obs.Counter
		g   *obs.Gauge
		h   *obs.Histogram
		s   *obs.Span
		rec *eventlog.Recorder
	)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
		h.Observe(1)
		s.End()
		rec.Emit(eventlog.Event{Type: eventlog.TypeDecide, Active: 1})
	})
	if allocs != 0 {
		t.Fatalf("nil handles allocated %.1f per op, want 0", allocs)
	}
}
