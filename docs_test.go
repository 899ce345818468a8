package sushi

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsReferencesResolve holds README.md and docs/ARCHITECTURE.md to
// the tree. README links ARCHITECTURE; ARCHITECTURE names no missing
// internal package and covers every existing one; and every backticked
// pkg.Name in either document, where pkg is sushi or an internal
// package (with or without its internal/ prefix), is a top-level
// declaration of that package. A rename without a docs update fails
// here.
func TestDocsReferencesResolve(t *testing.T) {
	_, _, top := scanSurface(t, ".")
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
	pkgs := map[string]bool{"sushi": true}
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
	ref := regexp.MustCompile(`\b(?:internal/)?([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	for name, doc := range docs {
		for _, span := range regexp.MustCompile("`[^`\n]+`").FindAllString(doc, -1) {
			for _, m := range ref.FindAllStringSubmatch(span, -1) {
				if pkgs[m[1]] && !top[m[1]+"."+m[2]] {
					t.Errorf("%s: %s names %s.%s, which is not declared", name, span, m[1], m[2])
				}
			}
		}
	}
}
