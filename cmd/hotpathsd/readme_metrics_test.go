package main

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hotpaths/internal/gateway"
	"hotpaths/internal/partition"
)

// readmeFamilies reads the metric family tables of README §Observability
// (the SLO table included): each row's first cell names one or more
// families, its second cell their kind.
func readmeFamilies(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	name := regexp.MustCompile("`(hotpaths[a-z0-9_]*)")
	families := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`hotpaths") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			families[m[1]] = strings.TrimSpace(cells[2])
		}
	}
	return families
}

// scrapedFamilies returns the `# TYPE name kind` set of a /metrics body.
func scrapedFamilies(body string, into map[string]string) {
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			into[f[2]] = f[3]
		}
	}
}

// Every metric family a node can register is documented in README
// §Observability, with its kind, and the README documents no family that
// none registers: the test builds one node of every kind that registers
// metrics (an Engine server, a -wal primary with its replication feed, a
// follower, and a gateway with its SLO) and scrapes each one's /metrics.
// A family named at run time would show up here as an undocumented one.
func TestMetricFamiliesMatchREADME(t *testing.T) {
	engine := newTestHandler(t)
	primary, _, follower, _ := newReplicaPair(t, 0)
	part := httptest.NewServer(engine)
	t.Cleanup(part.Close)
	g, err := gateway.New(gateway.Config{
		Table:         partition.NewTable(part.URL),
		K:             serverTestConfig().K,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	scraped := map[string]string{}
	for _, h := range []http.Handler{engine, primary, follower, g.Handler()} {
		scrapedFamilies(scrapeMetrics(t, h), scraped)
	}
	documented := readmeFamilies(t)
	for _, name := range slices.Sorted(maps.Keys(scraped)) {
		if kind, ok := documented[name]; !ok {
			t.Errorf("%s (%s) is registered but not in README §Observability", name, scraped[name])
		} else if kind != scraped[name] {
			t.Errorf("%s is a %s, but README §Observability says %s", name, scraped[name], kind)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if _, ok := scraped[name]; !ok {
			t.Errorf("README §Observability documents %s, which no node registers", name)
		}
	}
}
