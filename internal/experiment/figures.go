package experiment

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Bar is one vertical bar of a comparison figure: a scheme/configuration
// run against one file, normalised to the uncompressed download.
type Bar struct {
	Label     string
	Scheme    codec.Scheme
	RelTime   float64 // total time / plain download time
	RelEnergy float64 // exact energy / plain download energy

	// Stacked components (seconds): transfer (lower), decompression
	// (upper), and visible (non-overlapped) compression for on-demand.
	DownloadSec float64
	DecompSec   float64
	CompressSec float64

	Result pipeline.Result
}

// FileComparison is one group of bars (one file) in a figure.
type FileComparison struct {
	Spec  workload.FileSpec
	Plain pipeline.Result
	Bars  []Bar
}

// compare runs each spec's file through runs (bar i labelled labels[i])
// and normalises every bar to the uncompressed download of the same bytes.
func (c Config) compare(specs []workload.FileSpec, labels []string, runs ...pipeline.Spec) ([]FileComparison, error) {
	out := make([]FileComparison, 0, len(specs))
	for _, spec := range specs {
		data := dataFor(spec)
		plain, err := pipeline.Run(pipeline.Spec{Data: data, Mode: pipeline.ModePlain, Rate: runs[0].Rate})
		if err != nil {
			return nil, err
		}
		fc := FileComparison{Spec: spec, Plain: plain}
		for i, r := range runs {
			r.Data = data
			res, err := pipeline.Run(r)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", spec.Name, labels[i], err)
			}
			fc.Bars = append(fc.Bars, Bar{
				Label:       labels[i],
				Scheme:      r.Scheme,
				RelTime:     res.TotalSeconds.Seconds() / plain.TotalSeconds.Seconds(),
				RelEnergy:   res.ExactEnergyJ / plain.ExactEnergyJ,
				DownloadSec: res.TransferSeconds.Seconds() - res.StallSeconds.Seconds(),
				DecompSec:   res.DecompressSeconds.Seconds(),
				CompressSec: res.StallSeconds.Seconds(),
				Result:      res,
			})
		}
		out = append(out, fc)
	}
	return out, nil
}

// SchemeComparison reproduces Figures 1 and 2: per file, download+
// decompress with gzip, compress and bzip2 (precompressed on the proxy;
// bzip2 with power saving enabled, as the paper presents its energy).
func (c Config) SchemeComparison() ([]FileComparison, error) {
	return c.compare(c.files(), []string{"gzip", "compress", "bzip2"},
		pipeline.Spec{Scheme: codec.Gzip, Mode: pipeline.ModeSequential},
		pipeline.Spec{Scheme: codec.Compress, Mode: pipeline.ModeSequential},
		pipeline.Spec{Scheme: codec.Bzip2, Mode: pipeline.ModeSequential, SleepDuringDecompress: true})
}

// InterleavingComparison reproduces Figures 5 and 6: gzip without
// interleaving, zlib without interleaving, and zlib with interleaving.
func (c Config) InterleavingComparison() ([]FileComparison, error) {
	return c.compare(c.files(), []string{"gzip", "zlib", "zlib+intl"},
		pipeline.Spec{Scheme: codec.Gzip, Mode: pipeline.ModeSequential},
		pipeline.Spec{Scheme: codec.Zlib, Mode: pipeline.ModeSequential},
		pipeline.Spec{Scheme: codec.Zlib, Mode: pipeline.ModeInterleaved})
}

// selectiveAffected returns the files the block-by-block scheme can
// change: low-factor and mixed-content entries, plus a synthetic tar-like
// mixed file of the kind Section 4.3 calls out.
func (c Config) selectiveAffected() []workload.FileSpec {
	var out []workload.FileSpec
	for _, s := range c.files() {
		if s.PaperGzip < 1.3 || s.Class == workload.ClassPDF || s.Class == workload.ClassTarHTML {
			out = append(out, s)
		}
	}
	mixed := workload.FileSpec{
		Name: "slides.tar", Size: int(2_000_000 * c.scale()), Class: workload.ClassTarHTML,
		Description: "synthetic tar mixing text and media blocks", Large: true,
		PaperGzip: 1.5, PaperCompress: 1.2, PaperBzip2: 1.6,
	}
	if mixed.Size < 512_000 {
		mixed.Size = 512_000
	}
	return append(out, mixed)
}

// SelectiveComparison reproduces Figure 11: gzip (sequential), zlib blind
// interleaved, and zlib with the block-by-block adaptive scheme, on the
// files the scheme affects.
func (c Config) SelectiveComparison() ([]FileComparison, error) {
	return c.compare(c.selectiveAffected(), []string{"gzip", "zlib+intl", "zlib+adaptive"},
		pipeline.Spec{Scheme: codec.Gzip, Mode: pipeline.ModeSequential},
		pipeline.Spec{Scheme: codec.Zlib, Mode: pipeline.ModeInterleaved},
		pipeline.Spec{Scheme: codec.Zlib, Mode: pipeline.ModeInterleaved, Selective: true})
}

// dataFor generates spec's content, using the mixed generator for the
// synthetic tar entry.
func dataFor(spec workload.FileSpec) []byte {
	if spec.Name == "slides.tar" {
		return workload.MixedFile(spec.Size, 42)
	}
	return spec.Generate()
}

// OnDemandComparison reproduces Figures 12 and 13: compression on demand
// with gzip and compress (whole-file, visible compression time) against
// the revised zlib (block-adaptive, compression overlapped with
// transmission, interleaved decompression). Large files only, as in the
// paper.
func (c Config) OnDemandComparison() ([]FileComparison, error) {
	large, _ := c.corpus()
	return c.compare(large, []string{"gzip", "compress", "zlib+intl"},
		pipeline.Spec{Scheme: codec.Gzip, Mode: pipeline.ModeInterleaved, OnDemand: true, OnDemandWholeFile: true},
		pipeline.Spec{Scheme: codec.Compress, Mode: pipeline.ModeInterleaved, OnDemand: true, OnDemandWholeFile: true},
		pipeline.Spec{Scheme: codec.Zlib, Mode: pipeline.ModeInterleaved, OnDemand: true, Selective: true})
}

// RenderBars formats a comparison figure as rows of relative values with
// stacked components. metric selects "time" or "energy".
func RenderBars(title, metric string, comps []FileComparison) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString(header(
		fmt.Sprintf("%-24s", "file"),
		fmt.Sprintf("%-14s", "bar"),
		fmt.Sprintf("%10s", "relative"),
		fmt.Sprintf("%10s", "download"),
		fmt.Sprintf("%10s", "decomp"),
		fmt.Sprintf("%10s", "compress"),
		fmt.Sprintf("%8s", "factor"),
	))
	for _, fc := range comps {
		for i, bar := range fc.Bars {
			name := ""
			if i == 0 {
				name = fc.Spec.Name
			}
			rel := bar.RelTime
			if metric == "energy" {
				rel = bar.RelEnergy
			}
			fmt.Fprintf(&b, "%-24s%-14s%10.3f%9.3fs%9.3fs%9.3fs%8.2f\n",
				name, bar.Label, rel, bar.DownloadSec, bar.DecompSec, bar.CompressSec, bar.Result.Factor)
		}
	}
	return b.String()
}
