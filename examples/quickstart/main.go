// Quickstart: compress a document with the three schemes, estimate the
// handheld's download energy for each, and let the paper's Equation 6
// decide whether compression is worth it.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// A typical "document" a handheld would download via a proxy: varied
	// prose rather than one repeated line, so the factors are realistic.
	var sb strings.Builder
	sentences := []string{
		"Wireless-networked handheld devices download data through proxy servers.",
		"Compressing the data saves radio energy but costs CPU energy to decompress.",
		"The trade-off depends on the compression factor and the link bandwidth.",
		"An energy model lets the proxy decide per block whether to compress.",
		"Decompression efficiency matters more than the deepest compression factor.",
	}
	for i := 0; sb.Len() < 600_000; i++ {
		sb.WriteString(fmt.Sprintf("[section %d, revision %d] ", i, i*i%97))
		sb.WriteString(sentences[i%len(sentences)])
		sb.WriteByte('\n')
	}
	doc := []byte(sb.String())

	model := repro.Params11Mbps()
	s := float64(len(doc)) / 1e6
	plainJ := model.DownloadEnergy(s)
	fmt.Printf("document: %d bytes; uncompressed download at 11 Mb/s costs %.3f J\n\n", len(doc), plainJ)

	fmt.Printf("%-10s %12s %8s %14s %14s %s\n",
		"scheme", "compressed", "factor", "interleaved J", "saving", "compress?")
	for _, scheme := range repro.Schemes() {
		c, err := repro.NewCodec(scheme, 0) // paper settings: -9 / -b16 / -9
		if err != nil {
			log.Fatal(err)
		}
		comp, err := c.Compress(doc)
		if err != nil {
			log.Fatal(err)
		}
		// Verify the round trip, as any real consumer would.
		back, err := c.DecompressAppend(nil, comp, len(doc))
		if err != nil || len(back) != len(doc) {
			log.Fatalf("%v round trip failed: %v", scheme, err)
		}
		sc := float64(len(comp)) / 1e6
		e := model.InterleavedEnergy(s, sc)
		fmt.Printf("%-10s %12d %8.2f %14.3f %13.1f%% %v\n",
			scheme, len(comp), repro.CompressionFactor(len(doc), len(comp)),
			e, (1-e/plainJ)*100, repro.ShouldCompress(len(doc), len(comp)))
	}

	fmt.Printf("\npaper thresholds: never compress files under %d bytes;\n", repro.FileThresholdBytes)
	fmt.Printf("large files need a compression factor above %.2f to save energy.\n",
		model.ThresholdFactor(4.0))
}
