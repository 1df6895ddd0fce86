// Proxycache: run the proxy server and the handheld client in one process
// over loopback TCP, downloading part of the paper's corpus in each
// transfer mode and comparing bytes on the wire and estimated energy — the
// paper's testbed, end to end.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	srv := repro.NewProxyServer(nil)
	// Serve a slice of the Table 2 corpus: one highly compressible file,
	// one binary, one incompressible media file.
	for _, spec := range repro.ScaledCorpus(0.05) {
		switch spec.Name {
		case "nes96.xml", "pegwit", "image01.jpg":
			srv.Register(spec.Name, spec.Generate())
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Println("proxy serving on", addr)

	cli := repro.NewProxyClient(addr)
	names, err := cli.List()
	if err != nil {
		return err
	}
	model := repro.Params11Mbps()

	for _, name := range names {
		fmt.Printf("\n=== %s ===\n", name)
		fmt.Printf("%-14s %10s %10s %8s %10s %10s\n",
			"mode", "raw", "wire", "factor", "blocks", "energy J")
		for _, mode := range []repro.ProxyClientMode{
			repro.ProxyRaw, repro.ProxyPrecompressed, repro.ProxyOnDemand, repro.ProxySelective,
		} {
			content, stats, err := cli.Fetch(name, repro.Gzip, mode)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", name, mode, err)
			}
			_ = content // verified inside Fetch via CRC
			e := model.TransferBreakdown(stats.RawBytes, stats.WireBytes, stats.BlocksCompressed).Total()
			fmt.Printf("%-14v %10d %10d %8.2f %6d/%-3d %10.4f\n",
				mode, stats.RawBytes, stats.WireBytes, stats.Factor,
				stats.BlocksCompressed, stats.BlocksTotal, e)
		}
	}
	fmt.Println("\nnote: selective mode never compresses blocks that fail the Equation 6 test,")
	fmt.Println("so on the jpeg it ships raw blocks while on-demand mode wastes CPU compressing them.")
	return nil
}
