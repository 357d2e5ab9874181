package fesplit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Why an exported function that no non-test code reads may stay.
const (
	readByTest      = "a surviving test asserts through it or builds its world with it"
	comparedByTest  = "a test compares the code's output against it"
	backsExperiment = "it backs an EXPERIMENTS.md row"
	interfaceMethod = "container/heap calls it through heap.Interface"
)

// reachableByTest lists the exported functions and methods that no
// non-test code reads but that stay, each with the reason it stays.
// Every other exported function must have a non-test reader, and every
// entry must name a declaration that still exists.
var reachableByTest = map[string]string{
	"internal/analysis.Params.FetchBounds":     readByTest,
	"internal/backend.Cluster.BusyTime":        readByTest,
	"internal/backend.DataCenter.CacheHits":    readByTest,
	"internal/backend.DataCenter.Served":       readByTest,
	"internal/cdn.Deployment.BEOf":             readByTest,
	"internal/core.FetchBounds":                readByTest,
	"internal/dns.Resolver.CacheHits":          readByTest,
	"internal/dns.Resolver.Lookups":            readByTest,
	"internal/frontend.Server.DialedBEConns":   readByTest,
	"internal/frontend.Server.MaxPoolWaiters":  readByTest,
	"internal/frontend.Server.PoolInflight":    readByTest,
	"internal/frontend.Server.Served":          readByTest,
	"internal/httpsim.PersistentConn.QueueLen": readByTest,
	"internal/obs.Tracer.Roots":                readByTest,
	"internal/simnet.WirelessGilbert":          readByTest,
	"internal/stats.AR1.Reset":                 readByTest,
	"internal/tcpsim.Conn.Closed":              readByTest,
	"internal/tcpsim.Conn.Established":         readByTest,
	"internal/tcpsim.Endpoint.FreeConns":       readByTest,
	"internal/tcpsim.Endpoint.OpenConns":       readByTest,
	"internal/tcpsim.Listener.Port":            readByTest,
	"internal/trace.Session.Boundary":          readByTest,
	"internal/vantage.DefaultFleet":            readByTest,
	"internal/workload.KeywordForRank":         readByTest,

	"internal/core.DeltaThresholdRTT":            comparedByTest,
	"internal/simnet.GilbertParams.MeanLossRate": comparedByTest,
	"internal/stats.AR1.StationaryStdDev":        comparedByTest,
	"internal/stats.LinFit.Residuals":            comparedByTest,
	"internal/stats.Zipf.Prob":                   comparedByTest,

	"internal/analysis.BoundaryCrossCheck":   backsExperiment,
	"internal/analysis.EstimateProcPerFE":    backsExperiment,
	"internal/analysis.ProcSpread":           backsExperiment,
	"internal/emulator.Runner.RunKeepAliveA": backsExperiment,
	"internal/frontend.GunzipAll":            backsExperiment,

	"internal/core.slotHeap.Less": interfaceMethod,
	"internal/core.slotHeap.Swap": interfaceMethod,
}

// TestExportedFunctionsHaveReaders holds the reachability rule: every
// exported top-level function or method declared in a non-test file
// outside benchmark/ is named by some non-test .go file of the module
// (benchmark/ included) outside its own declaration, or is listed in
// reachableByTest with its reason. A function only its own unit test
// reads is dead code with a test attached; delete both.
//
// Matching is by identifier name only, so it is a floor, not a proof:
// a dead method that shares its name with a live function or method
// anywhere in the module passes.
func TestExportedFunctionsHaveReaders(t *testing.T) {
	type decl struct {
		key, name, file string
		start, end      token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{} // identifier → where it appears, declared names excluded
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := dir
		if dir == "." {
			pkg = "fesplit"
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					key = pkg + "." + id.Name + "." + fd.Name.Name
				}
			}
			decls = append(decls, decl{key, fd.Name.Name, path, fd.Pos(), fd.End()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declared[d.key] = true
		read := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				read = true
				break
			}
		}
		if _, kept := reachableByTest[d.key]; !read && !kept {
			dead = append(dead, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported but read by no non-test code; delete it and its test, or list it in reachableByTest with the reason it stays", d)
	}
	for key := range reachableByTest {
		if !declared[key] {
			t.Errorf("reachableByTest lists %s, which no longer exists; drop the entry", key)
		}
	}
}
