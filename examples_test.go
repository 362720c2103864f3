package malnet_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRunDeterministically builds every program under
// examples/ and runs each twice: both runs must exit 0 and print the
// same non-empty bytes, including the line the example exists to
// show.
func TestExamplesRunDeterministically(t *testing.T) {
	examples := []struct{ name, want string }{
		{"quickstart", "CVE-2018-10561"},
		{"c2hunt", "2 live C2 server(s) found"},
		{"exploitcapture", "CVE-2018-10561"},
		{"ddoswatch", "5 commands extracted (server issued 5)"},
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, ex := range examples {
		pkg := "examples/" + ex.name
		// go test caches a pass by the files the test itself reads,
		// not by what its go build reads: reading the sources makes
		// an edited example run again.
		srcs, _ := filepath.Glob(filepath.Join(pkg, "*.go"))
		for _, src := range srcs {
			if _, err := os.ReadFile(src); err != nil {
				t.Fatal(err)
			}
		}
		args = append(args, "./"+pkg)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, ex := range examples {
		t.Run(ex.name, func(t *testing.T) {
			var runs [2][]byte
			for i := range runs {
				cmd := exec.Command(filepath.Join(dir, ex.name))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run %d: %v\n%s", i+1, err, stderr.Bytes())
				}
				runs[i] = out
			}
			if !bytes.Contains(runs[0], []byte(ex.want)) {
				t.Fatalf("output lacks %q:\n%s", ex.want, runs[0])
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Fatalf("two runs differ:\n--- first\n%s--- second\n%s", runs[0], runs[1])
			}
		})
	}
}
