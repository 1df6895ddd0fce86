package repro_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro"
)

// TestDocsNameDeclaredFacade fails when README.md, DESIGN.md or
// EXPERIMENTS.md names a repro.X that repro.go does not declare, backticks
// an internal/… or cmd/… path that is not a directory (a .go file, for a
// path ending in .go), backticks a pkg.Name of an internal package that
// does not declare Name (a function, method, type, variable or constant)
// or a pkg.Type.Member whose Type has no such field or method, backticks a
// bare Name or Type.Member that no Go file of the repository declares, or
// cites a Test…, Fuzz… or Benchmark… name that no test function's name
// starts with: a name trimmed from the code, or a package deleted, must
// leave the documents too.
func TestDocsNameDeclaredFacade(t *testing.T) {
	facade := declaredNames(t, "repro.go")
	internal := map[string]map[string]bool{} // package name → its names
	if err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		names := internal[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			internal[f.Name.Name] = names
		}
		for n := range declaredNames(t, path) {
			names[n] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var tests []string
	anywhere := map[string]bool{}  // every name any Go file declares, members also bare
	aliases := map[string]string{} // alias → the type it names
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the bench's build cache
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		for n := range declaredNames(t, path) {
			anywhere[n] = true
			if alias, target, ok := strings.Cut(n, "="); ok {
				aliases[alias] = target
			} else if _, member, ok := strings.Cut(n, "."); ok {
				anywhere[member] = true
			} else if strings.HasSuffix(path, "_test.go") {
				tests = append(tests, n)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for n := range anywhere { // an alias has its type's members
		for alias, target := range aliases {
			if member, ok := strings.CutPrefix(n, target+"."); ok {
				anywhere[alias+"."+member] = true
			}
		}
	}

	named := regexp.MustCompile(`\brepro\.([A-Z]\w*)`)
	path := regexp.MustCompile("`((?:internal|cmd)/[^`\\s]*)")
	backticked := regexp.MustCompile("`([^`\n]+)`")
	qualified := regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	// A bare Go name: an exported identifier with a lower-case letter in
	// it (acronyms such as PXY3 or SIGUSR1 are not names), alone or with
	// one member.
	bare := regexp.MustCompile(`^([A-Z]\w*[a-z]\w*)(?:\.(\w+))?$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(text), -1) {
			if !facade[m[1]] {
				t.Errorf("%s names repro.%s, which repro.go does not declare", doc, m[1])
			}
		}
		for _, m := range path.FindAllStringSubmatch(string(text), -1) {
			if fi, err := os.Stat(m[1]); err != nil || fi.IsDir() == strings.HasSuffix(m[1], ".go") {
				t.Errorf("%s names `%s`, which is not a package directory or Go file", doc, m[1])
			}
		}
		for _, span := range backticked.FindAllStringSubmatch(string(text), -1) {
			if m := bare.FindStringSubmatch(span[1]); m != nil {
				if name := strings.TrimSuffix(m[1]+"."+m[2], "."); !anywhere[name] {
					t.Errorf("%s names `%s`, which no Go file declares", doc, name)
				}
			}
			for _, m := range qualified.FindAllStringSubmatch(span[1], -1) {
				names, ok := internal[m[1]]
				switch {
				case !ok:
				case !names[m[2]]:
					t.Errorf("%s names `%s.%s`, which internal package %s does not declare", doc, m[1], m[2], m[1])
				case m[3] != "" && !names[m[2]+"."+m[3]]:
					t.Errorf("%s names `%s.%s.%s`, which is no field or method of %s.%s", doc, m[1], m[2], m[3], m[1], m[2])
				}
			}
		}
		for _, name := range cited.FindAllString(string(text), -1) {
			if !slices.ContainsFunc(tests, func(n string) bool { return strings.HasPrefix(n, name) }) {
				t.Errorf("%s cites %s, which no test, fuzz target or benchmark is named", doc, name)
			}
		}
	}
}

// declaredNames returns the names a Go file declares at top level: its
// functions, methods, types, variables and constants, and, as Type.Member,
// each method and each struct field or interface method of a type; and,
// as Alias=Type, the type an alias names.
func declaredNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared[d.Name.Name] = true
			if d.Recv != nil {
				declared[typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declared[spec.Name.Name] = true
					if spec.Assign.IsValid() {
						declared[spec.Name.Name+"="+typeName(spec.Type)] = true
					}
					var members []*ast.Field
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						members = typ.Fields.List
					case *ast.InterfaceType:
						members = typ.Methods.List
					}
					for _, field := range members {
						names := field.Names
						if len(names) == 0 { // embedded: named by its type
							names = []*ast.Ident{{Name: typeName(field.Type)}}
						}
						for _, n := range names {
							declared[spec.Name.Name+"."+n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declared[n.Name] = true
					}
				}
			}
		}
	}
	return declared
}

// typeName is the bare name of a receiver or embedded type: T for T, *T,
// T[P], pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

func TestFacadeCodecRoundTrip(t *testing.T) {
	data := []byte(strings.Repeat("public api round trip ", 2000))
	for _, s := range repro.Schemes() {
		c, err := repro.NewCodec(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DecompressAppend(nil, comp, 0)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%v: round trip failed: %v", s, err)
		}
		if repro.CompressionFactor(len(data), len(comp)) < 2 {
			t.Errorf("%v: factor too low", s)
		}
	}
}

func TestFacadeEnergyModel(t *testing.T) {
	m := repro.Params11Mbps()
	if e := m.DownloadEnergy(1.0); e < 3.4 || e > 3.7 {
		t.Errorf("E(1MB) = %v", e)
	}
	if !repro.ShouldCompress(1_000_000, 400_000) {
		t.Error("factor 2.5 on 1 MB should compress")
	}
	if repro.ShouldCompress(2000, 100) {
		t.Error("sub-threshold file should not compress")
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	data := []byte(strings.Repeat("experiment through the facade ", 10000))
	res, err := repro.RunExperiment(repro.ExperimentSpec{
		Data:   data,
		Scheme: repro.Gzip,
		Mode:   repro.ModeInterleaved,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactEnergyJ <= 0 || res.Factor < 2 {
		t.Errorf("result: %+v", res)
	}
}

func TestFacadeSelective(t *testing.T) {
	data := repro.GenerateMixedFile(512_000, 7)
	c, err := repro.NewCodec(repro.Zlib, 9)
	if err != nil {
		t.Fatal(err)
	}
	stream, stats, err := repro.SelectiveEncode(data, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksCompressed == 0 || stats.BlocksCompressed == stats.BlocksTotal {
		t.Errorf("mixed decisions expected: %d/%d", stats.BlocksCompressed, stats.BlocksTotal)
	}
	got, err := repro.SelectiveDecode(stream, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("selective round trip: %v", err)
	}
}

func TestFacadeProxy(t *testing.T) {
	srv := repro.NewProxyServer(nil)
	content := []byte(strings.Repeat("proxy through the facade ", 5000))
	srv.Register("file.txt", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, stats, err := repro.NewProxyClient(addr).Fetch("file.txt", repro.Gzip, repro.ProxySelective)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if stats.Factor < 2 {
		t.Errorf("factor %.2f", stats.Factor)
	}
}

func TestFacadeCorpus(t *testing.T) {
	if len(repro.Corpus()) != 37 {
		t.Errorf("corpus size %d", len(repro.Corpus()))
	}
	scaled := repro.ScaledCorpus(0.1)
	if scaled[0].Size >= repro.Corpus()[0].Size {
		t.Error("scaling had no effect")
	}
}
