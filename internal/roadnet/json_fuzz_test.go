package roadnet

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCityJSON asserts the loader's only two behaviors: return a
// valid city or return an error. No input — corrupt, truncated,
// adversarial, or merely weird — may panic, and anything it accepts
// must satisfy the same invariants a generated city does (so routing
// and dispatch can index it blindly).
func FuzzReadCityJSON(f *testing.F) {
	// Seed corpus: the known corrupt shapes from the unit tests plus a
	// valid serialized city and near-miss mutations of it.
	f.Add([]byte("garbage"))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"regions":[]}`))
	f.Add([]byte(`{"graph":{"landmarks":[],"segments":[{"id":0,"from":5,"to":6,"length":1,"speed_limit":1}]}}`))
	f.Add([]byte(`{"graph":{"landmarks":[],"segments":[]},"hospitals":[3],"depot":0}`))
	f.Add([]byte(`{"graph":{"landmarks":[],"segments":[]},"depot":-7}`))
	f.Add([]byte(`{"graph":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))

	cfg := DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 3, 3
	city, err := GenerateCity(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := city.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2]))                                      // truncated
	f.Add([]byte(strings.Replace(valid, `"id":1`, `"id":99`, 1)))            // id/index mismatch
	f.Add([]byte(strings.Replace(valid, `"depot":`, `"depot":9e9,"x":`, 1))) // dangling depot
	f.Add([]byte(strings.Replace(valid, `"region":1`, `"region":-2`, 1)))    // bad region

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCityJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as we got here without panicking
		}
		// Accepted: the city must be safe to use. Validate again and
		// exercise the indexed accessors the dispatch layer leans on.
		if c.Graph == nil {
			t.Fatal("accepted city with nil graph")
		}
		if err := c.Graph.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted city fails validation: %v", err)
		}
		for _, h := range c.Hospitals {
			c.Graph.Landmark(h)
		}
		if c.Depot != NoLandmark {
			c.Graph.Landmark(c.Depot)
		}
		c.Graph.Segments(func(s Segment) {
			c.Graph.Landmark(s.From)
			c.Graph.Landmark(s.To)
		})
	})
}
