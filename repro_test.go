package repro_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro"
)

// TestDocsNameDeclaredFacade fails when README.md, DESIGN.md or
// EXPERIMENTS.md names a repro.X that repro.go does not declare, or
// backticks an internal/… or cmd/… path that is not a directory (a .go
// file, for a path ending in .go): a name trimmed from the facade, or a
// package deleted, must leave the documents too.
func TestDocsNameDeclaredFacade(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "repro.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declared[spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declared[n.Name] = true
					}
				}
			}
		}
	}
	named := regexp.MustCompile(`\brepro\.([A-Z]\w*)`)
	path := regexp.MustCompile("`((?:internal|cmd)/[^`\\s]*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(text), -1) {
			if !declared[m[1]] {
				t.Errorf("%s names repro.%s, which repro.go does not declare", doc, m[1])
			}
		}
		for _, m := range path.FindAllStringSubmatch(string(text), -1) {
			if fi, err := os.Stat(m[1]); err != nil || fi.IsDir() == strings.HasSuffix(m[1], ".go") {
				t.Errorf("%s names `%s`, which is not a package directory or Go file", doc, m[1])
			}
		}
	}
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
		got, err := c.Decompress(comp, 0)
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
