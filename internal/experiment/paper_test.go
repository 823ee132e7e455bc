package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCH_paper.json from RunPaper")

const paperGolden = "../../BENCH_paper.json"

// The checked-in paper curve is a golden: RunPaper is deterministic under
// its fixed seed, so any drift in BENCH_paper.json's points is a behaviour
// change that must be regenerated and argued, not noise.
func TestPaperCurveMatchesGolden(t *testing.T) {
	if *update {
		rep, err := RunPaper()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(paperGolden)
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
	rep, err := RunPaper()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Points, golden.Points) {
		got, _ := json.MarshalIndent(rep.Points, "", "  ")
		t.Errorf("paper curve drifted from BENCH_paper.json; if the change is intended, "+
			"regenerate with `go test ./internal/experiment -run TestPaperCurveMatchesGolden -update`.\ngot:\n%s", got)
	}
}
