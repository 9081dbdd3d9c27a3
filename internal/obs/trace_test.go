package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "build")
	_, child1 := StartSpan(ctx1, "flood")
	time.Sleep(time.Millisecond)
	child1.End()
	ctx2, child2 := StartSpan(ctx1, "mobility")
	_, grand := StartSpan(ctx2, "trips")
	grand.End()
	child2.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if roots[0].name != "build" {
		t.Errorf("root name = %q", roots[0].name)
	}
	kids := roots[0].children
	if len(kids) != 2 || kids[0].name != "flood" || kids[1].name != "mobility" {
		t.Fatalf("children = %+v, want [flood mobility]", kids)
	}
	if g := kids[1].children; len(g) != 1 || g[0].name != "trips" {
		t.Errorf("grandchildren = %+v, want [trips]", g)
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "op")
	time.Sleep(2 * time.Millisecond)
	s.End()
	d := s.dur
	if d < time.Millisecond {
		t.Errorf("duration = %v, want >= 1ms", d)
	}
	// A second End keeps the first duration.
	time.Sleep(2 * time.Millisecond)
	s.End()
	if got := s.dur; got != d {
		t.Errorf("second End changed duration: %v -> %v", d, got)
	}
	// A parent's duration covers its child's.
	ctx1, parent := StartSpan(ctx, "parent")
	_, child := StartSpan(ctx1, "child")
	time.Sleep(time.Millisecond)
	child.End()
	parent.End()
	if parent.dur < child.dur {
		t.Errorf("parent %v < child %v", parent.dur, child.dur)
	}
}

func TestStartSpanWithoutTracer(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "noop")
	if s != nil {
		t.Fatal("span should be nil without a tracer")
	}
	if ctx2 != ctx {
		t.Error("context should be returned unchanged without a tracer")
	}
	s.End() // nil-safe
}

// TestStartSpanNoTracerAllocations pins the zero-alloc disabled path.
func TestStartSpanNoTracerAllocations(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		_, s := StartSpan(ctx, "noop")
		s.End()
	}); n != 0 {
		t.Errorf("StartSpan without tracer: %v allocs/op, want 0", n)
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c, s := StartSpan(ctx, "round")
				_, inner := StartSpan(c, "decide")
				inner.End()
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Roots()); got != 8*200 {
		t.Errorf("roots = %d, want %d", got, 8*200)
	}
}

func TestTracerWriteReport(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	for i := 0; i < 3; i++ {
		c, s := StartSpan(ctx, "sim.round")
		_, d := StartSpan(c, "dispatch.decide")
		d.End()
		s.End()
	}
	var sb strings.Builder
	tr.WriteReport(&sb)
	out := sb.String()
	if !strings.Contains(out, "sim.round") || !strings.Contains(out, "dispatch.decide") {
		t.Fatalf("report missing span names:\n%s", out)
	}
	if !strings.Contains(out, "3×") {
		t.Errorf("report should aggregate 3 same-named spans:\n%s", out)
	}
	// The child line is indented beneath its parent.
	var roundIdx, decideIdx = -1, -1
	for i, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "sim.round") {
			roundIdx = i
		}
		if strings.Contains(line, "dispatch.decide") {
			decideIdx = i
			if !strings.HasPrefix(line, "    ") {
				t.Errorf("child line not indented: %q", line)
			}
		}
	}
	if decideIdx < roundIdx {
		t.Errorf("child rendered before parent:\n%s", out)
	}

	// Nil tracer and combined report are safe.
	var nilTr *Tracer
	nilTr.WriteReport(&sb)
	WriteReport(&sb, nil, nil)
	WriteReport(&sb, NewRegistry(), tr)
}
