package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadAllSkipsNestedModules mirrors the go command's "./...": a
// subdirectory with its own go.mod is another module, so its packages
// are not loaded (and not analyzed) as part of the enclosing one.
func TestLoadAllSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":            "module outer\n\ngo 1.24\n",
		"a.go":              "package outer\n",
		"sub/b.go":          "package sub\n",
		"nested/go.mod":     "module nested\n\ngo 1.24\n",
		"nested/c.go":       "package nested\n",
		"nested/deep/d.go":  "package deep\n",
		"testdata/skip.go":  "package skip\n",
		".hidden/hidden.go": "package hidden\n",
	}
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if len(got) != 2 || got[0] != "outer" || got[1] != "outer/sub" {
		t.Errorf("loaded %v, want [outer outer/sub]", got)
	}
}
