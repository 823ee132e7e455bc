// Package geojson exports discovered hot motion paths as GeoJSON
// FeatureCollections (RFC 7946 structure with planar coordinates), so
// results drop straight into common mapping tools. Each motion path
// becomes a LineString feature with hotness, length and score properties.
//
// Coordinates are emitted in the simulation's metric frame. For real
// deployments with geodetic input, positions would already be in lon/lat;
// nothing in the encoding assumes otherwise.
package geojson

import (
	"encoding/json"
	"fmt"
	"io"

	"hotpaths/internal/motion"
)

// Feature is a minimal GeoJSON feature with a LineString geometry.
type Feature struct {
	Type       string         `json:"type"`
	Geometry   Geometry       `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

// Geometry is a GeoJSON LineString.
type Geometry struct {
	Type        string       `json:"type"`
	Coordinates [][2]float64 `json:"coordinates"`
}

// FeatureCollection is the top-level GeoJSON container.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// FromHotPaths converts hot motion paths into a FeatureCollection ordered
// as given (callers typically pass a TopK result, hottest first, so the
// rank property is meaningful).
func FromHotPaths(paths []motion.HotPath) FeatureCollection {
	// Features starts non-nil so an empty collection encodes as the
	// RFC 7946-required "features": [] rather than null.
	fc := FeatureCollection{Type: "FeatureCollection", Features: []Feature{}}
	for rank, hp := range paths {
		fc.Features = append(fc.Features, Feature{
			Type: "Feature",
			Geometry: Geometry{
				Type: "LineString",
				Coordinates: [][2]float64{
					{hp.Path.S.X, hp.Path.S.Y},
					{hp.Path.E.X, hp.Path.E.Y},
				},
			},
			Properties: map[string]any{
				"id":      uint64(hp.Path.ID),
				"rank":    rank + 1,
				"hotness": hp.Hotness,
				"length":  hp.Path.Length(),
				"score":   hp.Score(),
			},
		})
	}
	return fc
}

// Write encodes the collection as indented JSON.
func Write(w io.Writer, fc FeatureCollection) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fc); err != nil {
		return fmt.Errorf("geojson: %w", err)
	}
	return nil
}
