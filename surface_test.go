package sushi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyAPI lists the exported funcs and methods that no production
// code calls but that tests call to check production code, each with
// its reason. An entry that gains a production caller, or no longer
// exists, fails TestExportsHaveCallers: drop it from the list.
var testOnlyAPI = map[string]string{
	"simq.Result.Check":            "the engine-invariant checker simq and core tests hold each run to",
	"simq.Result.Timed":            "expands a flat outcome record for tests that assert per-query fates",
	"calib.FromTable":              "wraps an analytic table for the disk round-trip golden",
	"supernet.SuperNet.RandomSpec": "the generator of the Instantiate property test",
	"nn.Model.TotalWeightBytes":    "the reference value GraphBytes is checked against",
	// The server records populations through workload.Population.Record
	// and replays them; the goldens hold that path to this one.
	"core.ClusterDeployment.SimulatePopulation": "the lazy population path that TestTraceV2RecordReplayBitExact, TestCohortPopulationGoldenDigest and TestSingleCohortPoissonClusterIdentity compare the recorded/replayed path against",
}

// stdlibMethods satisfy standard-library interfaces: the standard
// library calls them, not this module.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"ServeHTTP": true, "WriteTo": true, "ReadByte": true,
}

// TestExportsHaveCallers holds every package to one rule: an exported
// func or method declared outside bench/ is named by an identifier in
// some non-test file (bench/ included) other than its own declaration.
// The match is by name, so this is a ratchet against test-only API, not
// a proof of use.
func TestExportsHaveCallers(t *testing.T) {
	decls, refs, _ := scanSurface(t, ".")
	for _, e := range surfaceErrors(decls, refs, testOnlyAPI) {
		t.Error(e)
	}
}

// TestSurfaceRuleBites runs the rule on a two-package module that
// breaks it in each of the three ways it can be broken.
func TestSurfaceRuleBites(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"a/a.go": "package a\n\nfunc Used() {}\nfunc Unused() {}\nfunc Allowed() {}\nfunc FromBench() {}\n\ntype T struct{}\n\nfunc (T) String() string { return \"\" }\n",
		"b/b.go": "package b\n\nimport \"m/a\"\n\nvar _ = []func(){a.Used, a.Allowed}\n",
		// bench/ counts as a caller, never as a declarer.
		"bench/c.go":  "package main\n\nimport \"m/a\"\n\nfunc Benched() {}\n\nfunc main() { a.FromBench() }\n",
		"a/a_test.go": "package a\n\nfunc TestOnly() { Unused() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decls, refs, _ := scanSurface(t, root)
	got := surfaceErrors(decls, refs, map[string]string{"a.Allowed": "", "a.Gone": ""})
	want := []string{
		"a.Allowed has a production caller now: drop it from testOnlyAPI",
		"a.Unused (a/a.go) is exported but no non-test file calls it: delete it or unexport it",
		"testOnlyAPI entry a.Gone no longer exists: drop it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("surfaceErrors =\n%q\nwant\n%q", got, want)
	}
}

// surfaceErrors applies the rule to a scan, exempting allow's entries
// and stdlibMethods, and returns its violations sorted.
func surfaceErrors(decls map[string]string, refs map[string]bool, allow map[string]string) []string {
	var errs []string
	for name, file := range decls {
		short := name[strings.LastIndexByte(name, '.')+1:]
		_, allowed := allow[name]
		switch {
		case stdlibMethods[short]:
		case allowed && refs[short]:
			errs = append(errs, name+" has a production caller now: drop it from testOnlyAPI")
		case !allowed && !refs[short]:
			errs = append(errs, name+" ("+file+") is exported but no non-test file calls it: delete it or unexport it")
		}
	}
	for name := range allow {
		if _, ok := decls[name]; !ok {
			errs = append(errs, "testOnlyAPI entry "+name+" no longer exists: drop it")
		}
	}
	sort.Strings(errs)
	return errs
}

// scanSurface parses the non-test Go files under root. decls maps each
// exported func ("pkg.Name") or method ("pkg.Type.Name") declared
// outside bench/ to its slash-separated path; refs holds every
// identifier name the files use, func declarations' own names excluded;
// top holds every func, method, type, var and const declared at the top
// level outside bench/, as "pkg.Name" (a method by its bare name).
func scanSurface(t *testing.T, root string) (decls map[string]string, refs, top map[string]bool) {
	t.Helper()
	decls, refs, top = map[string]string{}, map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		declared := map[*ast.Ident]bool{}
		bench := strings.HasPrefix(rel, "bench/")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				for _, spec := range d.(*ast.GenDecl).Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						top[f.Name.Name+"."+sp.Name.Name] = !bench
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							top[f.Name.Name+"."+id.Name] = !bench
						}
					}
				}
				continue
			}
			declared[fn.Name] = true
			top[f.Name.Name+"."+fn.Name.Name] = !bench
			if bench || !fn.Name.IsExported() {
				continue
			}
			name := f.Name.Name + "."
			if fn.Recv != nil {
				name += recvType(fn.Recv.List[0].Type) + "."
			}
			decls[name+fn.Name.Name] = rel
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, refs, top
}

// recvType names a method receiver's base type: T for T, *T, T[P] and
// *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
