// Command loadgen drives mixed session traffic against a self-hosted
// serving stack — the load test of internal/serve — and writes a JSON
// report of what it measured to standard output, or to the -out file.
//
// The sessions run the greedy method over the small scenario at seed 1,
// with serve's default queue depth. The run has three phases, all
// through the HTTP session API (the same handlers cmd/mobiserve mounts,
// minus the network):
//
//  1. ramp: 1000 long-lived sessions are created and held open by 16
//     concurrent workers, pinning the peak-concurrency claim;
//  2. burst: every live session gets advance and inject traffic from
//     the shared worker pool (cross-session contention, 429 retries);
//  3. churn: 2000 short session lifecycles (300 with -smoke; create,
//     advance × 2 with a mid-life inject, close) run through the pool
//     while the ramped sessions stay live.
//
// The report gives sessions/sec (churn lifecycles), p99 create and
// advance latency (*_ns_per_op), peak heap, and backpressure retry
// counts, plus the two gate booleans:
//
//   - sustained_target_sessions: the service held all 1000 ramped
//     sessions live at once;
//   - zero_errors: no request failed — backpressure 429s are retried,
//     anything else is an error.
//
// loadgen exits 1, without writing the report, when either gate
// boolean is false. `make serve-smoke` runs it with -smoke and relies
// on the exit status.
//
// Usage:
//
//	go run ./cmd/loadgen [-out report.json] [-smoke]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/serve"
)

// The load the package comment describes; the ramped sessions are also
// the concurrency target the gate requires.
const (
	scale    = "small"
	seed     = 1
	method   = "greedy"
	sessions = 1000
	clients  = 16
	windows  = 2
)

// report is the JSON document loadgen writes.
type report struct {
	GeneratedAt time.Time `json:"generated_at"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Smoke       bool      `json:"smoke"`
	Scale       string    `json:"scale"`
	Seed        int64     `json:"seed"`
	Method      string    `json:"method"`

	TargetSessions  int `json:"target_sessions"`
	RampSessions    int `json:"ramp_sessions"`
	ChurnLifecycles int `json:"churn_lifecycles"`
	Clients         int `json:"clients"`
	WindowsPerLife  int `json:"windows_per_lifecycle"`

	PeakConcurrentSessions int     `json:"peak_concurrent_sessions"`
	SessionsPerSec         float64 `json:"sessions_per_sec"`
	CreateP99NsPerOp       float64 `json:"create_p99_ns_per_op"`
	AdvanceP99NsPerOp      float64 `json:"advance_p99_ns_per_op"`
	PeakHeapBytes          uint64  `json:"peak_heap_bytes"`
	BackpressureRetries    int64   `json:"backpressure_retries"`
	Errors                 int64   `json:"errors"`

	// Gate booleans: loadgen exits 1 when either is false.
	SustainedTargetSessions bool `json:"sustained_target_sessions"`
	ZeroErrors              bool `json:"zero_errors"`
}

// client drives the session API handler in-process, retrying
// backpressure like a well-behaved network client.
type client struct {
	h       http.Handler
	retries atomic.Int64
	errors  atomic.Int64
}

// do issues one request, retrying 429s (counting them) with the linear
// backoff a Retry-After-respecting client would use, scaled down to
// keep the benchmark honest about throughput but short in wall-clock.
func (c *client) do(method, path, body string) (int, []byte) {
	for attempt := 0; ; attempt++ {
		var r *http.Request
		if body == "" {
			r = httptest.NewRequest(method, path, nil)
		} else {
			r = httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
		}
		rr := httptest.NewRecorder()
		c.h.ServeHTTP(rr, r)
		if rr.Code != http.StatusTooManyRequests {
			return rr.Code, rr.Body.Bytes()
		}
		c.retries.Add(1)
		if attempt >= 1000 {
			c.errors.Add(1)
			return rr.Code, rr.Body.Bytes()
		}
		time.Sleep(time.Duration(attempt%10+1) * time.Millisecond)
	}
}

// expect records an error unless the request landed on wantStatus.
func (c *client) expect(method, path, body string, wantStatus int) []byte {
	code, resp := c.do(method, path, body)
	if code != wantStatus {
		c.errors.Add(1)
		log.Printf("loadgen: %s %s -> %d (want %d): %s", method, path, code, wantStatus, resp)
	}
	return resp
}

// latencies accumulates operation durations across workers.
type latencies struct {
	mu sync.Mutex
	ns []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, float64(d.Nanoseconds()))
	l.mu.Unlock()
}

func (l *latencies) p99() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ns) == 0 {
		return 0
	}
	sort.Float64s(l.ns)
	idx := int(0.99 * float64(len(l.ns)-1))
	return l.ns[idx]
}

// forEach fans the indices [0,n) over `clients` workers.
func forEach(n, clients int, fn func(i int)) {
	var wg sync.WaitGroup
	idx := make(chan int, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

func main() {
	var (
		out   = flag.String("out", "-", "output JSON path (- for stdout)")
		smoke = flag.Bool("smoke", false, "CI smoke mode: shrink the churn phase (the concurrency target still holds)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	churn := 2000
	if *smoke {
		churn = 300
	}

	scCfg, err := core.ScenarioConfigForScale(scale)
	if err != nil {
		log.Fatal(err)
	}
	scCfg.Seed = seed
	sc, err := core.BuildScenario(scCfg)
	if err != nil {
		log.Fatalf("building scenario: %v", err)
	}
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Seed = seed
	sys, err := core.NewSystem(sc, sysCfg)
	if err != nil {
		log.Fatalf("building system: %v", err)
	}
	world, err := core.NewSessionWorld(sys)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc, err := serve.NewService(world, serve.Config{
		MaxSessions: sessions + clients + 1,
		Metrics:     reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	c := &client{h: svc.Handler()}
	createLat := &latencies{}
	advanceLat := &latencies{}

	createBody := func(i int) string {
		return fmt.Sprintf(`{"method":%q,"seed":%d}`, method, int64(i%97+1))
	}
	peakConcurrent := 0
	var peakMu sync.Mutex
	notePeak := func() {
		n := svc.SessionCount()
		peakMu.Lock()
		if n > peakConcurrent {
			peakConcurrent = n
		}
		peakMu.Unlock()
	}

	// Phase 1 — ramp: open the long-lived sessions.
	rampStart := time.Now()
	rampIDs := make([]string, sessions)
	forEach(sessions, clients, func(i int) {
		opStart := time.Now()
		resp := c.expect("POST", "/api/sessions", createBody(i), http.StatusCreated)
		createLat.add(time.Since(opStart))
		var st serve.Status
		if err := json.Unmarshal(resp, &st); err != nil || st.ID == "" {
			c.errors.Add(1)
			return
		}
		rampIDs[i] = st.ID
		notePeak()
	})
	rampSecs := time.Since(rampStart).Seconds()
	log.Printf("ramp: %d sessions live in %.2fs (%.0f creates/s)",
		svc.SessionCount(), rampSecs, float64(sessions)/rampSecs)

	// Phase 2 — burst: advance + inject traffic across every live
	// session from the shared pool.
	forEach(sessions, clients, func(i int) {
		id := rampIDs[i]
		if id == "" {
			return
		}
		opStart := time.Now()
		c.expect("POST", "/api/sessions/"+id+"/advance", `{"windows":1}`, http.StatusOK)
		advanceLat.add(time.Since(opStart))
		c.expect("POST", "/api/sessions/"+id+"/inject",
			fmt.Sprintf(`{"requests":[{"seg":%d,"in_s":300}]}`, i%8), http.StatusOK)
	})

	// Peak heap with the full session population live and warmed.
	runtime.GC()
	peakHeap := obs.ReadMem().HeapInuseBytes

	// Phase 3 — churn: short lifecycles while the ramped sessions stay
	// open, so creates/closes run against a full table.
	churnStart := time.Now()
	forEach(churn, clients, func(i int) {
		opStart := time.Now()
		resp := c.expect("POST", "/api/sessions", createBody(i+sessions), http.StatusCreated)
		createLat.add(time.Since(opStart))
		var st serve.Status
		if err := json.Unmarshal(resp, &st); err != nil || st.ID == "" {
			c.errors.Add(1)
			return
		}
		notePeak()
		for w := 0; w < windows; w++ {
			opStart = time.Now()
			c.expect("POST", "/api/sessions/"+st.ID+"/advance", `{"windows":1}`, http.StatusOK)
			advanceLat.add(time.Since(opStart))
			if w == 0 {
				c.expect("POST", "/api/sessions/"+st.ID+"/inject",
					fmt.Sprintf(`{"requests":[{"seg":%d,"in_s":120}]}`, i%8), http.StatusOK)
			}
		}
		c.expect("DELETE", "/api/sessions/"+st.ID, "", http.StatusOK)
	})
	churnSecs := time.Since(churnStart).Seconds()

	// Tear down the ramped sessions; the table must come back empty.
	forEach(sessions, clients, func(i int) {
		if rampIDs[i] == "" {
			return
		}
		c.expect("DELETE", "/api/sessions/"+rampIDs[i], "", http.StatusOK)
	})
	if n := svc.SessionCount(); n != 0 {
		c.errors.Add(1)
		log.Printf("session table holds %d sessions after teardown", n)
	}

	rep := report{
		GeneratedAt:     time.Now().UTC(),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Smoke:           *smoke,
		Scale:           scale,
		Seed:            seed,
		Method:          method,
		TargetSessions:  sessions,
		RampSessions:    sessions,
		ChurnLifecycles: churn,
		Clients:         clients,
		WindowsPerLife:  windows,

		PeakConcurrentSessions: peakConcurrent,
		SessionsPerSec:         float64(churn) / churnSecs,
		CreateP99NsPerOp:       createLat.p99(),
		AdvanceP99NsPerOp:      advanceLat.p99(),
		PeakHeapBytes:          peakHeap,
		BackpressureRetries:    c.retries.Load(),
		Errors:                 c.errors.Load(),
	}
	rep.SustainedTargetSessions = peakConcurrent >= sessions
	rep.ZeroErrors = rep.Errors == 0

	log.Printf("churn: %d lifecycles in %.2fs (%.0f sessions/s), peak %d concurrent, p99 advance %.2fms, peak heap %.1f MB, %d retries, %d errors",
		churn, churnSecs, rep.SessionsPerSec, peakConcurrent,
		rep.AdvanceP99NsPerOp/1e6, float64(peakHeap)/1e6, rep.BackpressureRetries, rep.Errors)
	if !rep.SustainedTargetSessions {
		log.Fatalf("peak concurrency %d never reached the %d-session target", peakConcurrent, sessions)
	}
	if !rep.ZeroErrors {
		log.Fatalf("%d requests failed", rep.Errors)
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	doc = append(doc, '\n')
	if *out == "-" {
		os.Stdout.Write(doc)
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loadgen: wrote %s\n", *out)
}
