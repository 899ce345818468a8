package sushi

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAPI lists the exported funcs and methods that no production
// code reaches but that tests call to check production code, each with
// its reason. They are oracles: whatever they reach counts as reached.
// An entry that production code reaches, or that no longer exists,
// fails TestExportsHaveCallers: drop it from the list.
var testOnlyAPI = map[string]string{
	"simq.Result.Check":            "the engine-invariant checker simq and core tests hold each run to",
	"simq.Result.Timed":            "expands a flat outcome record for tests that assert per-query fates",
	"simq.Result.Service":          "the pass tuple read by identity_test.go's outcome digests (they hash RecacheSec, which Timed does not carry) and cluster_test.go's whole-tuple comparisons",
	"calib.FromTable":              "wraps an analytic table for the disk round-trip golden",
	"supernet.SuperNet.RandomSpec": "the generator of the Instantiate property test",
	"nn.Model.TotalWeightBytes":    "the reference value GraphBytes is checked against",
	"sched.Scheduler.Served":       "the served count simq's TestValidationHasNoSideEffects holds to zero after a stream fails validation",
	// The server records populations through workload.Population.Record
	// and replays them; the goldens hold that path to this one.
	"core.ClusterDeployment.SimulatePopulation": "the lazy population path that TestTraceV2RecordReplayBitExact, TestCohortPopulationGoldenDigest and TestSingleCohortPoissonClusterIdentity compare the recorded/replayed path against",
}

// TestExportsHaveCallers holds every package to one rule: an exported
// func, method or type alias declared outside bench/ is reachable from
// production code, or is an entry of testOnlyAPI. Names resolve by type
// (go/types), so a method is reached only through its own type, never
// through another type's method of the same name. The production roots
// are the cmd/ and examples/ mains, all of bench/ (a caller, never a
// declarer) and the sushi package's exported API.
func TestExportsHaveCallers(t *testing.T) {
	for _, e := range surfaceErrors(loadRepo(t), testOnlyAPI) {
		t.Error(e)
	}
}

// TestSurfaceRuleBites runs the rule on a small module that breaks it
// in each way it can be broken. B.Close shares its name with A.Close,
// which production calls: matching by name would pass it.
func TestSurfaceRuleBites(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module m\n",
		"a/a.go": "package a\n\nfunc Used() {}\nfunc Unused() {}\nfunc Allowed() {}\nfunc FromBench() {}\nfunc FromAPI() {}\n\n" +
			"type T struct{}\n\nfunc (T) String() string { return \"\" }\n\n" +
			"type A struct{}\n\nfunc (A) Close() {}\n\ntype B struct{}\n\nfunc (B) Close() {}\n",
		"b/b.go":        "package b\n\nimport \"m/a\"\n\nfunc Run() { a.Used(); a.Allowed(); a.A{}.Close(); _ = a.T{} }\n",
		"cmd/c/main.go": "package main\n\nimport \"m/b\"\n\nfunc main() { b.Run() }\n",
		// The root package's exported API is a root; its unexported code is not.
		"root.go": "package m\n\nimport \"m/a\"\n\nfunc API() { a.FromAPI() }\n\nfunc internal() { a.Unused() }\n",
		// bench/ counts as a caller, never as a declarer.
		"bench/go.mod": "module m/bench\n",
		"bench/c.go":   "package main\n\nimport \"m/a\"\n\nfunc Benched() {}\n\nfunc main() { a.FromBench() }\n",
		"a/a_test.go":  "package a\n\nfunc TestOnly() { Unused(); B{}.Close() }\n",
	})
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	got := surfaceErrors(m, map[string]string{"a.Allowed": "", "a.Gone": ""})
	want := []string{
		"a.Allowed is reached from production code now: drop it from testOnlyAPI",
		"a.B.Close (a/a.go) is exported but not reachable from production code: delete it or unexport it",
		"a.Unused (a/a.go) is exported but not reachable from production code: delete it or unexport it",
		"testOnlyAPI entry a.Gone no longer exists: drop it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("surfaceErrors =\n%q\nwant\n%q", got, want)
	}
}

// writeTree writes files (slash path → contents) under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// modPkg is one type-checked package: its non-test files only.
type modPkg struct {
	dir   string // slash path from the module root; "" for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is every package under a root, type-checked from source
// against the installed standard library's export data.
type module struct {
	fset *token.FileSet
	pkgs map[string]*modPkg // by import path
	std  types.Importer
}

var (
	repoOnce sync.Once
	repo     *module
	repoErr  error
)

// loadRepo loads this repository once per test binary.
func loadRepo(t *testing.T) *module {
	t.Helper()
	repoOnce.Do(func() { repo, repoErr = loadModule(".") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

// loadModule parses and type-checks the non-test Go files under root.
// A package's import path is the root go.mod's module path joined with
// its directory, which holds for the nested bench/ module too (its
// go.mod declares that path).
func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if mod == nil {
		return nil, fmt.Errorf("%s declares no module", filepath.Join(root, "go.mod"))
	}
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}, std: importer.Default()}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := string(mod[1])
		if dir = filepath.ToSlash(dir); dir == "." {
			dir = ""
		} else {
			ip += "/" + dir
		}
		if m.pkgs[ip] == nil {
			m.pkgs[ip] = &modPkg{dir: dir}
		}
		m.pkgs[ip].files = append(m.pkgs[ip].files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range m.pkgs {
		if _, err := m.Import(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Import type-checks a package of the tree on first use and defers
// every other path to the standard library's export data.
func (m *module) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.types == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		p.types = pkg
	}
	return p.types, nil
}

// inBench reports whether a package sits in the bench/ tree.
func (p *modPkg) inBench() bool { return p.dir == "bench" || strings.HasPrefix(p.dir, "bench/") }

// surfaceErrors applies the rule to a loaded module, treating allow's
// entries as oracles, and returns its violations sorted.
func surfaceErrors(m *module, allow map[string]string) []string {
	g := newReachGraph(m)
	checked := map[string]types.Object{} // "pkg.Name" or "pkg.Type.Name"
	file := map[types.Object]string{}
	for _, p := range m.pkgs {
		for obj, f := range g.decls[p] {
			fn, isFunc := obj.(*types.Func)
			switch {
			case p.inBench(), p.dir == "" && obj.Exported():
				g.mark(obj)
			case isFunc && fn.Name() == "init" || obj.Name() == "_":
				g.mark(obj)
			case isFunc && fn.Name() == "main" && p.types.Name() == "main":
				g.mark(obj)
			}
			alias := false
			if tn, ok := obj.(*types.TypeName); ok {
				alias = tn.IsAlias()
			}
			if !p.inBench() && obj.Exported() && (isFunc || alias) {
				name := p.types.Name() + "." + memberName(obj)
				checked[name], file[obj] = obj, f
			}
		}
	}
	g.drain()
	var errs []string
	for name := range allow {
		switch obj, ok := checked[name]; {
		case !ok:
			errs = append(errs, "testOnlyAPI entry "+name+" no longer exists: drop it")
		case g.reached[obj]:
			errs = append(errs, name+" is reached from production code now: drop it from testOnlyAPI")
		default:
			g.mark(obj)
		}
	}
	g.drain()
	for name, obj := range checked {
		if _, ok := allow[name]; !ok && !g.reached[obj] {
			errs = append(errs, name+" ("+file[obj]+") is exported but not reachable from production code: delete it or unexport it")
		}
	}
	sort.Strings(errs)
	return errs
}

// memberName names a method "Type.Name" and anything else "Name".
func memberName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if t := recvNamed(fn); t != nil {
			return t.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}

// recvNamed returns a method's receiver base type, nil for a func.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// reachGraph is the use graph of a module's top-level declarations.
// Reaching a declaration reaches everything its source names. A method
// is also reached when its type is reached and it implements a method
// of a live interface — one that reached code names, or that a reached
// standard-library declaration takes — and that interface method is
// called: a method of a tree interface is called when reached code
// names it, and the standard library's are assumed called.
type reachGraph struct {
	m       *module
	decls   map[*modPkg]map[types.Object]string // top-level object → slash path
	uses    map[types.Object][]types.Object
	ifaces  map[types.Object][]types.Type // interface types a declaration names
	methods []*types.Func
	live    map[types.Type]bool
	reached map[types.Object]bool
	queue   []types.Object
}

func newReachGraph(m *module) *reachGraph {
	g := &reachGraph{
		m: m, decls: map[*modPkg]map[types.Object]string{},
		uses: map[types.Object][]types.Object{}, ifaces: map[types.Object][]types.Type{},
		live: map[types.Type]bool{}, reached: map[types.Object]bool{},
	}
	g.live[types.Universe.Lookup("error").Type()] = true
	if fmtPkg, err := m.std.Import("fmt"); err == nil {
		g.live[fmtPkg.Scope().Lookup("Stringer").Type()] = true
	}
	// errors.Is, As and Unwrap assert interface{ Unwrap() error }.
	unwrap := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)
	g.live[types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete()] = true
	for _, p := range m.pkgs {
		g.decls[p] = map[types.Object]string{}
		for _, f := range p.files {
			path := pathpkg.Join(p.dir, filepath.Base(m.fset.Position(f.Package).Filename))
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					obj := p.info.Defs[fn.Name].(*types.Func)
					if fn.Recv != nil {
						g.methods = append(g.methods, obj)
					}
					g.declare(p, path, fn, obj)
					continue
				}
				for _, spec := range d.(*ast.GenDecl).Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						g.declare(p, path, sp, p.info.Defs[sp.Name])
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							g.declare(p, path, sp, p.info.Defs[id])
						}
					}
				}
			}
		}
	}
	return g
}

// declare records obj as declared by node and links it to every object
// and interface type node names.
func (g *reachGraph) declare(p *modPkg, path string, node ast.Node, obj types.Object) {
	g.decls[p][obj] = path
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if u := origin(p.info.Uses[x]); u != nil && u.Pkg() != nil {
				if g.m.pkgs[u.Pkg().Path()] != nil {
					g.uses[obj] = append(g.uses[obj], u)
				}
				g.addInterfaces(obj, u.Type(), true)
			}
		case *ast.InterfaceType:
			g.ifaces[obj] = append(g.ifaces[obj], p.info.Types[x].Type)
		}
		return true
	})
}

// addInterfaces records the interface t is or, when deep, the
// interfaces t's signature takes and returns, or its element is.
func (g *reachGraph) addInterfaces(obj types.Object, t types.Type, deep bool) {
	if _, ok := t.Underlying().(*types.Interface); ok {
		g.ifaces[obj] = append(g.ifaces[obj], t)
		return
	}
	if !deep {
		return
	}
	switch x := t.(type) {
	case *types.Signature:
		for _, vs := range []*types.Tuple{x.Params(), x.Results()} {
			for i := range vs.Len() {
				g.addInterfaces(obj, vs.At(i).Type(), false)
			}
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
		g.addInterfaces(obj, x.Elem(), false)
	}
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch x := obj.(type) {
	case *types.Func:
		return x.Origin()
	case *types.Var:
		return x.Origin()
	}
	return obj
}

func (g *reachGraph) mark(obj types.Object) {
	if !g.reached[obj] {
		g.reached[obj] = true
		g.queue = append(g.queue, obj)
	}
}

// drain reaches everything the queue leads to, through uses and live
// interfaces, until nothing new is reached.
func (g *reachGraph) drain() {
	for {
		for len(g.queue) > 0 {
			obj := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			for _, u := range g.uses[obj] {
				g.mark(u)
			}
			for _, t := range g.ifaces[obj] {
				g.live[t] = true
			}
		}
		for _, fn := range g.methods {
			if !g.reached[fn] && g.reached[recvNamed(fn).Obj()] && g.implementsLive(fn) {
				g.mark(fn)
			}
		}
		if len(g.queue) == 0 {
			return
		}
	}
}

// implementsLive reports whether fn's type implements a live interface
// whose method of fn's name is called.
func (g *reachGraph) implementsLive(fn *types.Func) bool {
	t := recvNamed(fn)
	for it := range g.live {
		iface := it.Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			im := iface.Method(i)
			if im.Name() != fn.Name() {
				continue
			}
			if im.Pkg() != nil && !g.reached[im] && g.m.pkgs[im.Pkg().Path()] != nil {
				continue
			}
			if t.TypeParams().Len() > 0 || types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
	}
	return false
}
