package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// The checked-in paper curve is a golden: RunPaper is deterministic under
// its fixed seed, so any drift in BENCH_paper.json's points is a behaviour
// change that must be regenerated and argued, not noise.
func TestPaperCurveMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden PaperReport
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.GOARCH != runtime.GOARCH {
		// Float results may differ across architectures (fused
		// multiply-add), so the golden holds on the one it was made on.
		t.Skipf("golden recorded on %s, running on %s", golden.GOARCH, runtime.GOARCH)
	}
	rep, err := RunPaper(false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Points, golden.Points) {
		got, _ := json.MarshalIndent(rep.Points, "", "  ")
		t.Errorf("paper curve drifted from BENCH_paper.json; if the change is intended, "+
			"regenerate with `go run ./cmd/hotpaths bench -paper BENCH_paper.json`.\ngot:\n%s", got)
	}
}
