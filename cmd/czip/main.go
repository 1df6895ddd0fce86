// Command czip compresses and decompresses files with the repository's
// from-scratch codecs: gzip (DEFLATE), compress (LZW), bzip2 (BWT) and
// zlib. It holds its whole input in memory, as the paper's handheld holds
// each file or block it decodes.
//
// Usage:
//
//	czip -scheme gzip -level 9 < raw > raw.gz
//	czip -d -scheme gzip < raw.gz > raw
//	czip -scheme bzip2 -stats < input > output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "czip:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("czip", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeName = fs.String("scheme", "gzip", "compression scheme: gzip, compress, bzip2, zlib")
		level      = fs.Int("level", 0, "level (1-9; 9-16 bits for compress; 0 = paper setting)")
		decompress = fs.Bool("d", false, "decompress instead of compress")
		stats      = fs.Bool("stats", false, "print size statistics to stderr")
		maxSize    = fs.Int("maxsize", 1<<30, "decompression output bound in bytes")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	scheme, err := repro.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	c, err := repro.NewCodec(scheme, *level)
	if err != nil {
		return err
	}
	in, err := io.ReadAll(stdin)
	if err != nil {
		return fmt.Errorf("read stdin: %w", err)
	}
	var out []byte
	if *decompress {
		out, err = c.Decompress(in, *maxSize)
	} else {
		out, err = c.Compress(in)
	}
	if err != nil {
		return err
	}
	if _, err := stdout.Write(out); err != nil {
		return err
	}
	if *stats {
		raw, comp := len(in), len(out)
		if *decompress {
			raw, comp = len(out), len(in)
		}
		fmt.Fprintf(stderr, "%s: raw %d bytes, compressed %d bytes, factor %.3f\n",
			scheme, raw, comp, repro.CompressionFactor(raw, comp))
	}
	return nil
}
