package prism

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets compiles and vets benchmark/, the repo
// benchmark. It is a module of its own (`replace repro => ../`), so `go
// build ./...` and `go test ./...` here never compile it, yet it calls
// nvm, hsit, keyindex, pwb and sim directly: a change to one of their
// signatures would otherwise first show as a benchmark run that fails to
// build. `make bench-module` also runs the benchmark's own tests.
func TestBenchmarkModuleVets(t *testing.T) {
	out, err := exec.Command("go", "-C", "benchmark", "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
