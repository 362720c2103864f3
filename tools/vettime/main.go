// Command vettime enforces the repo's determinism contract at the
// source level: no package under ./internal may read or wait on wall
// time directly — the deterministic pipeline runs on the simclock
// virtual clock, and the only blessed wall-clock accessors live in
// internal/obs (profiling plane) and internal/realprobe (real-network
// adapter). Everything else calling time.Now, time.Sleep, time.After
// and friends would smuggle nondeterminism into outputs that the
// equivalence tests promise are byte-identical at any worker count.
//
// It also enforces the durability contract on internal/checkpoint:
// any non-test file there that creates files (os.WriteFile, os.Create,
// os.OpenFile, os.Link) must also call os.Rename — the temp-file-plus-
// rename pattern that makes snapshot writes atomic. A direct write
// could leave a half-written lake object or journal for a resume or a
// mount to trip over.
// internal/checkpoint and internal/lake additionally carry the fsync
// half of that contract: a non-test file that opens writable handles
// or makes hard links must call .Sync() (neither Close nor a link
// flushes to stable storage), and os.WriteFile — which exposes no
// handle to Sync — is banned there outright.
//
// And it holds internal/colstore to a stricter purity rule: non-test
// files there may not import "time" or "math/rand" at all. The
// columnar engine's differential suite replays generated queries
// across worker counts and sessions, so even seeded-but-stateful
// randomness (a shared *rand.Rand advancing per call) is a hazard;
// colstore draws every choice through internal/detrand's pure hash
// instead.
//
// internal/serve gets the same import-level ban on "time": request
// timing on the serving path belongs to internal/obs/redplane (the
// one blessed wall-clock reader there), so the serving library itself
// must not even be able to reach the clock. The reload ticker lives
// in cmd/malnetd, which is out of scope on purpose.
//
// Usage:  go run ./tools/vettime [dir]     (default ./internal)
//
// Exits 1 listing each offending call site. _test.go files are
// exempt (tests may time themselves); cmd/ is exempt by scope (CLIs
// report wall-clock progress on purpose).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// banned are the time-package functions that read or wait on the wall
// clock. Pure-value helpers (time.Date, time.Parse, time.Duration
// arithmetic) are fine — they don't observe the clock.
var banned = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

// allowed packages own a telemetry or real-network plane where wall
// time is the point: obs (profiling), realprobe (real-TCP probing),
// loadgen (latency measurement of a live daemon).
var allowed = []string{
	filepath.Join("internal", "obs"),
	filepath.Join("internal", "realprobe"),
	filepath.Join("internal", "loadgen"),
}

func main() {
	root := "./internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fset := token.NewFileSet()
	var findings []string

	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			for _, a := range allowed {
				if strings.HasSuffix(filepath.Clean(path), a) {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		findings = append(findings, check(fset, file)...)
		if strings.Contains(filepath.Clean(path), filepath.Join("internal", "checkpoint")) {
			findings = append(findings, checkAtomicWrites(fset, file, path)...)
			findings = append(findings, checkSyncBeforeClose(fset, file)...)
		}
		if strings.Contains(filepath.Clean(path), filepath.Join("internal", "lake")) {
			findings = append(findings, checkSyncBeforeClose(fset, file)...)
		}
		if strings.Contains(filepath.Clean(path), filepath.Join("internal", "colstore")) {
			findings = append(findings, checkPureImports(fset, file)...)
		}
		if strings.Contains(filepath.Clean(path), filepath.Join("internal", "serve")) {
			findings = append(findings, checkServeNoTime(fset, file)...)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vettime:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "vettime: %d contract violation(s): wall-clock reads need the simclock (or obs.Now for telemetry); checkpoint writes need temp-file + os.Rename\n", len(findings))
		os.Exit(1)
	}
}

// fileCreators are the os-package calls that produce a file at its
// final path; inside internal/checkpoint their presence demands an
// os.Rename in the same file (write-to-temp or link-to-temp,
// rename-into-place).
var fileCreators = map[string]bool{
	"WriteFile": true, "Create": true, "OpenFile": true, "Link": true,
}

// checkAtomicWrites flags internal/checkpoint files that create files
// without renaming: checkpoint writes must be atomic (temp file +
// os.Rename), or a crash can strand a torn snapshot at a real object
// path.
func checkAtomicWrites(fset *token.FileSet, file *ast.File, path string) []string {
	osName := ""
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
			osName = "os"
			if imp.Name != nil {
				osName = imp.Name.Name
			}
		}
	}
	if osName == "" || osName == "_" {
		return nil
	}
	var creators []string
	renames := false
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != osName || id.Obj != nil {
			return true
		}
		switch {
		case sel.Sel.Name == "Rename":
			renames = true
		case fileCreators[sel.Sel.Name]:
			creators = append(creators, fmt.Sprintf(
				"%s: os.%s without os.Rename — checkpoint writes must be atomic (temp file + os.Rename)",
				fset.Position(sel.Pos()), sel.Sel.Name))
		}
		return true
	})
	if renames {
		return nil
	}
	return creators
}

// handleCreators are the os-package calls that open a writable file
// handle or add a name to a file. Inside the durable packages
// (internal/checkpoint, internal/lake) a file that makes them must
// also call .Sync() somewhere: Close() does not flush the page cache,
// and a hard link changes the file's inode, so a rename-into-place
// without an fsync can still lose the bytes or the link on power
// failure. os.WriteFile is flagged outright — it exposes no handle to
// Sync.
var handleCreators = map[string]bool{
	"Create": true, "CreateTemp": true, "OpenFile": true, "Link": true,
}

// checkSyncBeforeClose enforces the fsync half of the durability
// contract on a file from internal/checkpoint or internal/lake: any
// non-test file that opens writable handles or links must contain at
// least one .Sync() call, and may not use os.WriteFile at all.
func checkSyncBeforeClose(fset *token.FileSet, file *ast.File) []string {
	osName := ""
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
			osName = "os"
			if imp.Name != nil {
				osName = imp.Name.Name
			}
		}
	}
	if osName == "" || osName == "_" {
		return nil
	}
	var creators []string
	syncs := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == osName && id.Obj == nil {
			switch {
			case sel.Sel.Name == "WriteFile":
				creators = append(creators, fmt.Sprintf(
					"%s: os.WriteFile in a durable package — it cannot fsync; open a handle and Sync before Close",
					fset.Position(sel.Pos())))
			case handleCreators[sel.Sel.Name]:
				creators = append(creators, fmt.Sprintf(
					"%s: os.%s without a .Sync() in the file — neither Close nor a link flushes to stable storage",
					fset.Position(sel.Pos()), sel.Sel.Name))
			}
			return true
		}
		if sel.Sel.Name == "Sync" && len(call.Args) == 0 {
			syncs = true
		}
		return true
	})
	if syncs {
		// os.WriteFile stays flagged even in a file that Syncs
		// elsewhere: the WriteFile'd bytes themselves are never
		// fsynced.
		var out []string
		for _, c := range creators {
			if strings.Contains(c, "os.WriteFile") {
				out = append(out, c)
			}
		}
		return out
	}
	return creators
}

// impureImports are whole packages banned from internal/colstore:
// the query engine and its generator must be pure functions of their
// inputs, with randomness routed through internal/detrand's stateless
// hash.
var impureImports = map[string]bool{
	"time": true, "math/rand": true, "math/rand/v2": true,
}

// checkPureImports flags internal/colstore files that import a banned
// package, whatever they do with it.
func checkPureImports(fset *token.FileSet, file *ast.File) []string {
	var out []string
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); impureImports[p] {
			out = append(out, fmt.Sprintf(
				"%s: colstore imports %q — the columnar engine must stay pure (use internal/detrand)",
				fset.Position(imp.Pos()), p))
		}
	}
	return out
}

// checkServeNoTime flags internal/serve files that import "time" at
// all: every wall-clock read on the serving path must go through
// internal/obs/redplane, so request timing has exactly one owner and
// the serving library stays byte-deterministic for the golden smoke
// diff. (The banned-function scan would miss pure-value uses; the
// import ban keeps the clock entirely out of reach.)
func checkServeNoTime(fset *token.FileSet, file *ast.File) []string {
	var out []string
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			out = append(out, fmt.Sprintf(
				"%s: serve imports %q — serving-path timing belongs to internal/obs/redplane",
				fset.Position(imp.Pos()), p))
		}
	}
	return out
}

// check scans one file for selector uses of the banned functions on
// the "time" import (under whatever local name it was imported).
func check(fset *token.FileSet, file *ast.File) []string {
	// Resolve the local identifier bound to the time package; files
	// that don't import it can't offend.
	timeName := ""
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "time" {
			continue
		}
		timeName = "time"
		if imp.Name != nil {
			timeName = imp.Name.Name
		}
	}
	if timeName == "" || timeName == "_" {
		return nil
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !banned[sel.Sel.Name] {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		// Obj == nil means the identifier resolves to the package
		// import, not a local variable that happens to shadow it.
		if !ok || id.Name != timeName || id.Obj != nil {
			return true
		}
		out = append(out, fmt.Sprintf("%s: %s.%s reads wall time in a deterministic package",
			fset.Position(sel.Pos()), timeName, sel.Sel.Name))
		return true
	})
	return out
}
