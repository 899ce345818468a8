package sushi

import (
	"fmt"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDocsReferencesResolve holds README.md and docs/ARCHITECTURE.md to
// the tree. README links ARCHITECTURE; ARCHITECTURE names no missing
// internal package and covers every existing one; every backticked
// name resolves (docRefErrors); and every backticked *.go path names
// exactly one file (goPathErrors). A rename or deletion without a docs
// update fails here.
func TestDocsReferencesResolve(t *testing.T) {
	docs := map[string]string{}
	for _, name := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	arch := docs["docs/ARCHITECTURE.md"]
	if !strings.Contains(docs["README.md"], "docs/ARCHITECTURE.md") {
		t.Error("README.md does not link docs/ARCHITECTURE.md")
	}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]bool{}
	for _, d := range dirs {
		d = filepath.ToSlash(d)
		pkgs[strings.TrimPrefix(d, "internal/")] = true
		// Anchored, so internal/nn is not covered by internal/nnx.
		if !regexp.MustCompile(regexp.QuoteMeta(d) + `([^a-z0-9_-]|$)`).MatchString(arch) {
			t.Errorf("docs/ARCHITECTURE.md does not cover %s", d)
		}
	}
	for _, p := range regexp.MustCompile(`internal/[a-z0-9_-]+`).FindAllString(arch, -1) {
		if !pkgs[strings.TrimPrefix(p, "internal/")] {
			t.Errorf("docs/ARCHITECTURE.md references missing package %s", p)
		}
	}
	for _, e := range goPathErrors(t, ".", docs) {
		t.Error(e)
	}
	for _, e := range docRefErrors(loadRepo(t), docs) {
		t.Error(e)
	}
}

// TestDocsRefRuleBites runs docRefErrors on a module whose document
// names a declared and a missing package-level name, a field, an
// unexported method, a missing method, and a capitalised word that is
// no type.
func TestDocsRefRuleBites(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod":     "module m\n",
		"a/a.go":     "package a\n\ntype T struct{ Field int }\n\nfunc (T) peek() {}\n\nfunc New() T { return T{} }\n",
		"cmd/c/c.go": "package main\n\nimport \"m/a\"\n\nfunc main() { a.New() }\n",
	})
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	doc := "`a.New`, `a.Gone`, `T.Field`, `T.peek`, `a.T.peek`, `T.enact`, `README.md`"
	got := docRefErrors(m, map[string]string{"DOC.md": doc})
	want := []string{
		"DOC.md: `T.enact` names T.enact, which no type T has",
		"DOC.md: `a.Gone` names a.Gone, which is not declared",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("docRefErrors =\n%q\nwant\n%q", got, want)
	}
}

// docRefErrors checks two kinds of backticked reference in docs (name
// → text) against a loaded module. A pkg.Name, where pkg is a non-main
// package of the tree outside bench/ (with or without an internal/
// prefix), must be declared at pkg's top level. A Type.member, where
// Type is a type some package declares, must name a field or method,
// exported or not, of a type of that name.
func docRefErrors(m *module, docs map[string]string) []string {
	scopes := map[string]*types.Scope{}
	typesNamed := map[string][]*types.TypeName{}
	for _, p := range m.pkgs {
		if p.types.Name() != "main" && !p.inBench() {
			scopes[p.types.Name()] = p.types.Scope()
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok {
				typesNamed[name] = append(typesNamed[name], tn)
			}
		}
	}
	hasMember := func(typeName, member string) bool {
		for _, tn := range typesNamed[typeName] {
			pkg := tn.Pkg()
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				pkg = n.Obj().Pkg()
			}
			if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, member); obj != nil {
				return true
			}
		}
		return false
	}
	pkgRef := regexp.MustCompile(`\b(?:internal/)?([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	memberRef := regexp.MustCompile(`\b([A-Z]\w*)\.([A-Za-z_]\w*)`)
	var errs []string
	for name, doc := range docs {
		for _, span := range regexp.MustCompile("`[^`\n]+`").FindAllString(doc, -1) {
			for _, r := range pkgRef.FindAllStringSubmatch(span, -1) {
				if scope := scopes[r[1]]; scope != nil && scope.Lookup(r[2]) == nil {
					errs = append(errs, fmt.Sprintf("%s: %s names %s.%s, which is not declared", name, span, r[1], r[2]))
				}
			}
			for _, r := range memberRef.FindAllStringSubmatch(span, -1) {
				if len(typesNamed[r[1]]) > 0 && !hasMember(r[1], r[2]) {
					errs = append(errs, fmt.Sprintf("%s: %s names %s.%s, which no type %s has", name, span, r[1], r[2], r[1]))
				}
			}
		}
	}
	sort.Strings(errs)
	return errs
}

// TestDocsGoPathRuleBites runs goPathErrors on a tree whose document
// names a file that exists, one that does not, a bare name two files
// share, and a bare name only one file has.
func TestDocsGoPathRuleBites(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"a/main.go", "b/main.go", "a/event.go", "c/d/weights.go"} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	doc := "`a/event.go` and `event.go`, `d/weights.go`, `a/gone.go`, `main.go`"
	got := goPathErrors(t, root, map[string]string{"DOC.md": doc})
	want := []string{
		"DOC.md: `a/gone.go` names a/gone.go, which matches no file",
		"DOC.md: `main.go` names main.go, which matches 2 files: [a/main.go b/main.go]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("goPathErrors =\n%q\nwant\n%q", got, want)
	}
}

// goPathErrors checks every backticked *.go path in docs (name → text)
// against the files under root: a path must match exactly one file, by
// its whole slash path from root or by a trailing run of its path
// elements, so a bare name such as event.go must be unique in the tree.
func goPathErrors(t *testing.T, root string, docs map[string]string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	goPath := regexp.MustCompile(`[\w./-]+\.go\b`)
	var errs []string
	for name, doc := range docs {
		for _, span := range regexp.MustCompile("`[^`\n]+`").FindAllString(doc, -1) {
			for _, ref := range goPath.FindAllString(span, -1) {
				var hits []string
				for _, f := range files {
					if f == ref || strings.HasSuffix(f, "/"+ref) {
						hits = append(hits, f)
					}
				}
				switch {
				case len(hits) == 0:
					errs = append(errs, fmt.Sprintf("%s: %s names %s, which matches no file", name, span, ref))
				case len(hits) > 1:
					errs = append(errs, fmt.Sprintf("%s: %s names %s, which matches %d files: %v", name, span, ref, len(hits), hits))
				}
			}
		}
	}
	sort.Strings(errs)
	return errs
}
