package geojson

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
)

func TestFromHotPaths(t *testing.T) {
	paths := []motion.HotPath{
		{Path: motion.Path{ID: 7, S: geom.Pt(0, 0), E: geom.Pt(30, 40)}, Hotness: 3},
		{Path: motion.Path{ID: 9, S: geom.Pt(1, 1), E: geom.Pt(1, 11)}, Hotness: 1},
	}
	fc := FromHotPaths(paths)
	if fc.Type != "FeatureCollection" || len(fc.Features) != 2 {
		t.Fatalf("fc = %+v", fc)
	}
	f := fc.Features[0]
	if f.Geometry.Type != "LineString" {
		t.Error("geometry type")
	}
	if f.Geometry.Coordinates[0] != [2]float64{0, 0} || f.Geometry.Coordinates[1] != [2]float64{30, 40} {
		t.Errorf("coords = %v", f.Geometry.Coordinates)
	}
	if f.Properties["hotness"] != 3 || f.Properties["rank"] != 1 {
		t.Errorf("props = %v", f.Properties)
	}
	if f.Properties["length"].(float64) != 50 || f.Properties["score"].(float64) != 150 {
		t.Errorf("derived props = %v", f.Properties)
	}
	if fc.Features[1].Properties["rank"] != 2 {
		t.Error("rank ordering")
	}
	if len(FromHotPaths(nil).Features) != 0 {
		t.Error("empty input")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	paths := []motion.HotPath{
		{Path: motion.Path{ID: 1, S: geom.Pt(2, 3), E: geom.Pt(4, 5)}, Hotness: 2},
	}
	var buf bytes.Buffer
	if err := Write(&buf, FromHotPaths(paths)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"type": "FeatureCollection"`) {
		t.Errorf("output missing collection type:\n%s", out)
	}
	// Valid JSON that decodes back to an equivalent structure.
	var back FeatureCollection
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Features) != 1 || back.Features[0].Geometry.Coordinates[1] != [2]float64{4, 5} {
		t.Errorf("decoded = %+v", back)
	}
}
