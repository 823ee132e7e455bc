package experiment

import (
	"fmt"
	"runtime"

	"hotpaths/internal/motion"
	"hotpaths/internal/simulation"
)

// PaperPoint is one ε on the accuracy-vs-communication curve: how close
// SinglePath's top-k scores get to the exhaustive DP benchmark, against
// the uplink messages RayTrace filtering actually sent. This is the
// paper's central trade-off (Figures 7/8 read together): a larger ε buys
// communication savings with index-size and score drift.
type PaperPoint struct {
	Eps           float64 `json:"eps"`
	Accuracy      float64 `json:"accuracy"` // SP top-k score / DP top-k score
	SPScore       float64 `json:"sp_score"`
	DPScore       float64 `json:"dp_score"`
	SPIndexSize   float64 `json:"sp_index_size"`
	DPIndexSize   float64 `json:"dp_index_size"`
	UpMessages    int     `json:"up_messages"`
	NaiveMessages int     `json:"naive_messages"`
	Compression   float64 `json:"compression"` // naive / raytrace messages
	// Case1..Case3 are the fractions of the processed reports SinglePath
	// answered with each case; they sum to 1.
	Case1 float64 `json:"case1"`
	Case2 float64 `json:"case2"`
	Case3 float64 `json:"case3"`
	// The rest describe the final state of the run (the live paths of
	// simulation.Result.AllPaths and DPAll), not per-epoch averages.
	// SPHotness1Frac is the share of SinglePath's live paths crossed by
	// a single object; SPTop1Hotness and DPTop1Hotness are the hotness of
	// each method's hottest path; SPZeroLength counts SinglePath's live
	// paths whose start is their end.
	SPHotness1Frac float64 `json:"sp_hotness1_frac"`
	SPTop1Hotness  int     `json:"sp_top1_hotness"`
	DPTop1Hotness  int     `json:"dp_top1_hotness"`
	SPZeroLength   int     `json:"sp_zero_length"`
}

// PaperReport is the paper_accuracy artifact (BENCH_paper.json). Every
// numeric field is deterministic under the fixed seed, so regenerating
// the file on an unchanged tree is a no-op diff — drift in the curve is a
// behaviour change, not noise.
type PaperReport struct {
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Name      string       `json:"name"` // always "paper_accuracy"
	Seed      int64        `json:"seed"`
	Points    []PaperPoint `json:"points"`
}

// paperSeed seeds the QuickBase network and workload of the curve.
const paperSeed = 21

// paperEps are the swept tolerances: the QuickBase network is 3 km
// across, so the range spans "almost exact" to "very loose" like the
// paper's Figure 8 x-axis does at city scale.
var paperEps = []float64{2.5, 5, 10, 20}

// RunPaper regenerates the accuracy-vs-communication curve on the
// scaled-down QuickBase configuration: seconds, where the Section 6
// configuration (Base, driven by cmd/benchfigs) takes minutes.
func RunPaper() (PaperReport, error) {
	rep := PaperReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Name:      "paper_accuracy",
		Seed:      paperSeed,
	}
	base, err := QuickBase(paperSeed)
	if err != nil {
		return rep, fmt.Errorf("paper_accuracy: %w", err)
	}
	for _, eps := range paperEps {
		cfg := base
		cfg.Eps = eps
		res, err := simulation.Run(cfg)
		if err != nil {
			return rep, fmt.Errorf("paper_accuracy: eps=%v: %w", eps, err)
		}
		rep.Points = append(rep.Points, paperPoint(rowFrom(eps, res), res))
	}
	return rep, nil
}

func paperPoint(r Row, res *simulation.Result) PaperPoint {
	p := PaperPoint{
		Eps:           r.Param,
		SPScore:       r.SPScore,
		DPScore:       r.DPScore,
		SPIndexSize:   r.SPIndexSize,
		DPIndexSize:   r.DPIndexSize,
		UpMessages:    r.UpMessages,
		NaiveMessages: r.Measurements,
		SPTop1Hotness: maxHotness(res.AllPaths),
		DPTop1Hotness: maxHotness(res.DPAll),
	}
	if r.DPScore > 0 {
		p.Accuracy = r.SPScore / r.DPScore
	}
	if r.UpMessages > 0 {
		p.Compression = float64(r.Measurements) / float64(r.UpMessages)
	}
	if n := float64(r.Case1 + r.Case2 + r.Case3); n > 0 {
		p.Case1, p.Case2, p.Case3 = float64(r.Case1)/n, float64(r.Case2)/n, float64(r.Case3)/n
	}
	hotness1 := 0
	for _, hp := range res.AllPaths {
		if hp.Hotness == 1 {
			hotness1++
		}
		if hp.Path.Length() == 0 {
			p.SPZeroLength++
		}
	}
	if len(res.AllPaths) > 0 {
		p.SPHotness1Frac = float64(hotness1) / float64(len(res.AllPaths))
	}
	return p
}

func maxHotness(paths []motion.HotPath) int {
	top := 0
	for _, hp := range paths {
		top = max(top, hp.Hotness)
	}
	return top
}
