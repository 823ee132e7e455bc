package hotpaths

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// The exported surface is checked in as testdata/api.golden, the output of
// `go doc -all .`, so every change to it shows up in review as a diff of
// that file.
func TestAPIGolden(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	got, err := exec.Command(gobin, "doc", "-all", "hotpaths").Output()
	if err != nil {
		t.Fatalf("go doc -all hotpaths: %v", err)
	}
	want, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	line := func(ls [][]byte) string {
		if i < len(ls) {
			return string(ls[i])
		}
		return "<end of output>"
	}
	t.Errorf("the exported API differs from testdata/api.golden at line %d:\n got  %s\n want %s\n"+
		"if the change is intended, regenerate with\n\tgo doc -all . > testdata/api.golden",
		i+1, line(gl), line(wl))
}
