package nn

import "testing"

// TestForwardIntoZeroAlloc is the 0 allocs/op contract for the DQN
// action-selection hot loop.
func TestForwardIntoZeroAlloc(t *testing.T) {
	net, err := New(1, []int{8, 64, 64, 6}, ActReLU, ActLinear)
	if err != nil {
		t.Fatal(err)
	}
	scratch := net.NewScratch()
	x := make([]float64, 8)
	if n := testing.AllocsPerRun(200, func() { net.ForwardInto(x, scratch) }); n != 0 {
		t.Fatalf("ForwardInto allocates %v/op, want 0", n)
	}
}

// TestForwardIntoPanics pins the programmer-error contracts.
func TestForwardIntoPanics(t *testing.T) {
	net, err := New(1, []int{4, 8, 2}, ActReLU, ActLinear)
	if err != nil {
		t.Fatal(err)
	}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("bad input", func() { net.ForwardInto(make([]float64, 3), net.NewScratch()) })
	expectPanic("small scratch", func() { net.ForwardInto(make([]float64, 4), make([]float64, net.ScratchSize()-1)) })
}

// BenchmarkForwardInto times one decision's forward pass through a
// DQN-sized network (8x64x64x6).
func BenchmarkForwardInto(b *testing.B) {
	net, err := New(1, []int{8, 64, 64, 6}, ActReLU, ActLinear)
	if err != nil {
		b.Fatal(err)
	}
	scratch := net.NewScratch()
	x := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardInto(x, scratch)
	}
}
