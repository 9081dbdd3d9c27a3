package eventlog

import (
	"fmt"
	"io"
)

// Diff turns "these two runs differ somewhere" into "they first diverge
// at window W, event E". It compares raw encoded lines — byte-identity
// is the determinism contract — but understands the schema enough to
// (a) treat informational manifest fields as non-semantic and (b) skip
// wall-clock fields when one side ran in timing mode.

// Divergence pinpoints the first differing event between two logs.
type Divergence struct {
	Window int // window of the first divergent event (0 = pre-window)
	Line   int // line number in log A (or B when A is exhausted)
	A, B   string
	// Why distinguishes "different bytes" from "one log ended early"
	// and "one log ends in a torn record".
	Why string
}

// DiffResult is the outcome of comparing two event logs.
type DiffResult struct {
	Comparable    bool   // manifests describe the same experiment
	ManifestNote  string // why not comparable, or informational deltas
	Identical     bool   // every post-header record byte-identical
	First         *Divergence
	EventsA       int
	EventsB       int
	WindowsDiffer int // count of windows containing ≥1 divergent event
}

// Diff compares two decoded logs.
func Diff(a, b *RunLog) *DiffResult {
	r := &DiffResult{EventsA: len(a.Events), EventsB: len(b.Events)}
	ok, why := a.Manifest.Comparable(b.Manifest)
	r.Comparable = ok
	if !ok {
		r.ManifestNote = why
		return r
	}
	if sem := a.Manifest.SemanticDeltas(b.Manifest); sem != "" {
		r.ManifestNote = "semantic: " + sem + " — different experiments, divergence expected"
	}
	if note := infoDeltas(a.Manifest, b.Manifest); note != "" {
		if r.ManifestNote != "" {
			r.ManifestNote += "; "
		}
		r.ManifestNote += "informational: " + note
	}
	if a.Manifest.Timing || b.Manifest.Timing {
		// Timing logs carry wall-clock fields; raw-byte comparison would
		// flag every decide. Still comparable, but say so.
		if r.ManifestNote != "" {
			r.ManifestNote += "; "
		}
		r.ManifestNote += "timing mode on — wall-clock fields ignored"
	}

	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	divergedWindows := map[int]bool{}
	for i := 0; i < n; i++ {
		ea, eb := &a.Events[i], &b.Events[i]
		if sameRecord(ea, eb, a.Manifest.Timing || b.Manifest.Timing) {
			continue
		}
		if r.First == nil {
			r.First = &Divergence{
				Window: ea.W, Line: ea.Line,
				A: ea.Raw, B: eb.Raw,
				Why: "records differ",
			}
		}
		divergedWindows[ea.W] = true
	}
	if len(a.Events) != len(b.Events) && r.First == nil {
		var tail *Record
		why := ""
		if len(a.Events) > n {
			tail, why = &a.Events[n], "log B ends early"
			r.First = &Divergence{Window: tail.W, Line: tail.Line, A: tail.Raw, Why: why}
		} else {
			tail, why = &b.Events[n], "log A ends early"
			r.First = &Divergence{Window: tail.W, Line: tail.Line, B: tail.Raw, Why: why}
		}
		divergedWindows[tail.W] = true
	}
	if a.Truncated != b.Truncated && r.First == nil {
		// Every complete record matches, but one run was cut mid-write:
		// its torn last record is missing from the other's stream.
		torn, why := b, "log B ends in a torn record"
		if a.Truncated {
			torn, why = a, "log A ends in a torn record"
		}
		d := &Divergence{Why: why}
		if n := len(torn.Events); n > 0 {
			d.Window, d.Line = torn.Events[n-1].W, torn.Events[n-1].Line+1
		}
		r.First = d
		divergedWindows[d.Window] = true
	}
	r.WindowsDiffer = len(divergedWindows)
	r.Identical = r.First == nil
	return r
}

// sameRecord compares two records: raw bytes normally, field-wise minus
// wall-clock fields when either log ran in timing mode.
func sameRecord(a, b *Record, timing bool) bool {
	if !timing {
		return a.Raw == b.Raw
	}
	ea, eb := a.Event, b.Event
	ea.LatencyNS, eb.LatencyNS = 0, 0
	return ea == eb
}

// infoDeltas describes differences in informational manifest fields.
func infoDeltas(a, b Manifest) string {
	s := ""
	add := func(f string) {
		if s != "" {
			s += ", "
		}
		s += f
	}
	if a.Workers != b.Workers {
		add(fmt.Sprintf("workers %d vs %d", a.Workers, b.Workers))
	}
	if a.GoVersion != b.GoVersion {
		add(fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return s
}

// WriteDiff renders a DiffResult for humans (and for CI grep).
func WriteDiff(w io.Writer, r *DiffResult, pathA, pathB string) {
	fmt.Fprintf(w, "diff %s %s\n", pathA, pathB)
	if !r.Comparable {
		fmt.Fprintf(w, "NOT COMPARABLE: %s\n", r.ManifestNote)
		return
	}
	if r.ManifestNote != "" {
		fmt.Fprintf(w, "note: %s\n", r.ManifestNote)
	}
	fmt.Fprintf(w, "events: %d vs %d\n", r.EventsA, r.EventsB)
	if r.Identical {
		fmt.Fprintf(w, "IDENTICAL: zero divergence\n")
		return
	}
	d := r.First
	fmt.Fprintf(w, "DIVERGED: %d window(s) differ; first divergence at window %d (line %d): %s\n",
		r.WindowsDiffer, d.Window, d.Line, d.Why)
	if d.A != "" {
		fmt.Fprintf(w, "  A: %s\n", d.A)
	}
	if d.B != "" {
		fmt.Fprintf(w, "  B: %s\n", d.B)
	}
}
