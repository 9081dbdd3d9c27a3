package roadnet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestCityJSONRoundTrip decodes the city JSON that `genscenario -city`
// writes with plain encoding/json, the way a reader outside the module
// would, and checks that every landmark, segment, region, hospital and
// the depot survive it. Unknown fields fail the decode, so the format
// cannot grow a field this test does not compare.
func TestCityJSONRoundTrip(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 4, 4
	city := mustCity(t, cfg)
	var buf bytes.Buffer
	if err := city.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var got struct {
		Graph struct {
			Landmarks []Landmark `json:"landmarks"`
			Segments  []Segment  `json:"segments"`
		} `json:"graph"`
		Regions   []RegionInfo `json:"regions"`
		Hospitals []LandmarkID `json:"hospitals"`
		Depot     LandmarkID   `json:"depot"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}

	g := city.Graph
	if len(got.Graph.Landmarks) != g.NumLandmarks() {
		t.Fatalf("%d landmarks, want %d", len(got.Graph.Landmarks), g.NumLandmarks())
	}
	for i, lm := range got.Graph.Landmarks {
		if want := g.Landmark(LandmarkID(i)); lm != want {
			t.Errorf("landmark %d = %+v, want %+v", i, lm, want)
		}
	}
	if len(got.Graph.Segments) != g.NumSegments() {
		t.Fatalf("%d segments, want %d", len(got.Graph.Segments), g.NumSegments())
	}
	for i, s := range got.Graph.Segments {
		if want := g.Segment(SegmentID(i)); s != want {
			t.Errorf("segment %d = %+v, want %+v", i, s, want)
		}
	}
	if !reflect.DeepEqual(got.Regions, city.Regions) {
		t.Errorf("regions = %+v, want %+v", got.Regions, city.Regions)
	}
	if !reflect.DeepEqual(got.Hospitals, city.Hospitals) {
		t.Errorf("hospitals = %v, want %v", got.Hospitals, city.Hospitals)
	}
	if got.Depot != city.Depot {
		t.Errorf("depot = %d, want %d", got.Depot, city.Depot)
	}
}
