package roadnet

import (
	"encoding/json"
	"io"
)

// graphJSON is the serialized form of a Graph: its landmarks and
// segments, each list in ID order. Adjacency is not written; it follows
// from the segments' endpoints.
type graphJSON struct {
	Landmarks []Landmark `json:"landmarks"`
	Segments  []Segment  `json:"segments"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{Landmarks: g.landmarks, Segments: g.segments})
}

// cityJSON is the serialized form of a City.
type cityJSON struct {
	Graph     *Graph       `json:"graph"`
	Regions   []RegionInfo `json:"regions"`
	Hospitals []LandmarkID `json:"hospitals"`
	Depot     LandmarkID   `json:"depot"`
}

// WriteJSON serializes the city to w.
func (c *City) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(cityJSON{
		Graph: c.Graph, Regions: c.Regions,
		Hospitals: c.Hospitals, Depot: c.Depot,
	})
}
