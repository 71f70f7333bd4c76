package pretium_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The documents keep their citations live: a Go name, a DESIGN section or
// a benchmark metric that a document cites must exist in the tree it
// describes. Each rule below reports every dead citation with its place.

// citedDocs are the documents whose Go names must resolve.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "PAPER.md"}

// deletedHeading titles the DESIGN section that records removed mechanisms;
// the names it cites are gone on purpose, so it is exempt from resolution.
const deletedHeading = "Tried, measured, deleted"

var (
	fenceRE   = regexp.MustCompile("(?s)```.*?```")
	spanRE    = regexp.MustCompile("`[^`]+`")
	headingRE = regexp.MustCompile(`(?m)^#+ (\d+[a-z]?)\. `)
	// A DESIGN citation: "DESIGN.md" or "DESIGN", a section sign and a
	// number, and optionally more numbers each after a comma or "and";
	// the text may wrap between any of them.
	sectionRE = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\d+[a-z]?(?:(?:,\s+|\s+and\s+)§\d+[a-z]?)*`)
	numberRE  = regexp.MustCompile(`§(\d+[a-z]?)`)
	pairRE    = regexp.MustCompile("`([A-Za-z0-9_.]+)`\\s+on\\s+`([A-Za-z0-9_-]+)`")
)

// TestDocsGoNamesResolve holds every backticked package-qualified name in
// the cited documents — pkg.Name or pkg.Type.Member, pkg the root package
// or an internal one — to a declaration, field or method in that package.
func TestDocsGoNamesResolve(t *testing.T) {
	pkgs := map[string]string{"pretium": "."}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			pkgs[d.Name()] = filepath.Join("internal", d.Name())
		}
	}
	alt := make([]string, 0, len(pkgs))
	for p := range pkgs {
		alt = append(alt, p)
	}
	sort.Strings(alt)
	// The package must not continue a path, a file name or a dotted
	// metric, and a name followed by "go" is a file (core.go).
	nameRE := regexp.MustCompile(`(?:^|[^\w./-])((` + strings.Join(alt, "|") + `)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?)`)
	metrics, _ := benchmarkNames(t)
	decls := map[string]*pkgDecls{}
	for _, doc := range citedDocs {
		text := readFile(t, doc)
		if doc == "DESIGN.md" {
			text = withoutSection(text, deletedHeading)
		}
		var spans []string
		text = fenceRE.ReplaceAllStringFunc(text, func(s string) string { spans = append(spans, s); return "" })
		spans = append(spans, spanRE.FindAllString(text, -1)...)
		for _, span := range spans {
			for _, m := range nameRE.FindAllStringSubmatch(span, -1) {
				cited, pkg, name, member := m[1], m[2], m[3], m[4]
				if name == "go" || metrics[pkg+"."+name] {
					continue
				}
				d := decls[pkg]
				if d == nil {
					d = parseDecls(t, pkgs[pkg])
					decls[pkg] = d
				}
				if !d.resolves(name, member) {
					t.Errorf("%s cites `%s`, which package %s does not declare", doc, cited, pkg)
				}
			}
		}
	}
}

// TestDocsDesignSectionsExist holds every citation of a DESIGN.md section
// (sectionRE) in the tree's Go, Markdown and YAML files and the Makefile
// to a heading of DESIGN.md. CHANGES.md is a history and cites the
// numbering of its day.
func TestDocsDesignSectionsExist(t *testing.T) {
	sections := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(readFile(t, "DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	for _, path := range treeFiles(t) {
		for _, cite := range sectionRE.FindAllString(readFile(t, path), -1) {
			for _, m := range numberRE.FindAllStringSubmatch(cite, -1) {
				if !sections[m[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no such heading", path, m[1])
				}
			}
		}
	}
}

// TestDocsBenchPairsExist holds every backticked metric followed by "on"
// and a backticked workload (pairRE) in the cited documents to a metric
// and a workload that BENCHMARK.json defines.
func TestDocsBenchPairsExist(t *testing.T) {
	metrics, workloads := benchmarkNames(t)
	for _, path := range citedDocs {
		for _, m := range pairRE.FindAllStringSubmatch(readFile(t, path), -1) {
			if !metrics[m[1]] || !workloads[m[2]] {
				t.Errorf("%s cites `%s` on `%s`; BENCHMARK.json defines metric %v, workload %v",
					path, m[1], m[2], metrics[m[1]], workloads[m[2]])
			}
		}
	}
}

// pkgDecls is what one package declares: its top-level names, and the
// fields and methods of each of its types.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (d *pkgDecls) resolves(name, member string) bool {
	if !d.top[name] {
		return false
	}
	return member == "" || d.members[name][member]
}

func parseDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	d := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
	add := func(typ, member string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][member] = true
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				typ := decl.Recv.List[0].Type
				if s, ok := typ.(*ast.StarExpr); ok {
					typ = s.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					add(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						var fields *ast.FieldList
						switch x := spec.Type.(type) {
						case *ast.StructType:
							fields = x.Fields
						case *ast.InterfaceType:
							fields = x.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								add(spec.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return d
}

// benchmarkNames reads the metric and workload names BENCHMARK.json
// defines.
func benchmarkNames(t *testing.T) (metrics, workloads map[string]bool) {
	t.Helper()
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readFile(t, "BENCHMARK.json")), &b); err != nil {
		t.Fatal(err)
	}
	metrics, workloads = map[string]bool{}, map[string]bool{}
	for _, w := range b.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		metrics[m.Name] = true
	}
	return metrics, workloads
}

// treeFiles lists the tree's Go, Markdown and YAML files and the
// Makefile, CHANGES.md excepted.
func treeFiles(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" && d.Name() != ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case path == "CHANGES.md":
		case path == "Makefile", strings.HasSuffix(path, ".go"), strings.HasSuffix(path, ".md"),
			strings.HasSuffix(path, ".yml"), strings.HasSuffix(path, ".yaml"):
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withoutSection drops the section whose heading contains title, up to
// the next heading of the same or a higher level.
func withoutSection(text, title string) string {
	lines := strings.Split(text, "\n")
	var out []string
	level := 0
	for _, l := range lines {
		if h := len(l) - len(strings.TrimLeft(l, "#")); h > 0 && strings.HasPrefix(l[h:], " ") {
			if level > 0 && h <= level {
				level = 0
			}
			if level == 0 && strings.Contains(l, title) {
				level = h
			}
		}
		if level == 0 {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
