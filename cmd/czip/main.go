// Command czip compresses and decompresses files with the repository's
// from-scratch codecs: gzip (DEFLATE), compress (LZW), bzip2 (BWT) and
// zlib.
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "czip:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		schemeName = flag.String("scheme", "gzip", "compression scheme: gzip, compress, bzip2, zlib")
		level      = flag.Int("level", 0, "level (1-9; 9-16 bits for compress; 0 = paper setting)")
		decompress = flag.Bool("d", false, "decompress instead of compress")
		stats      = flag.Bool("stats", false, "print size statistics to stderr")
		maxSize    = flag.Int("maxsize", 1<<30, "decompression output bound in bytes")
	)
	flag.Parse()

	scheme, err := repro.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	c, err := repro.NewCodec(scheme, *level)
	if err != nil {
		return err
	}
	// gzip streams in constant memory; the block codecs buffer.
	if scheme == repro.Gzip {
		return runGzipStream(*decompress, *level, *stats)
	}
	in, err := io.ReadAll(os.Stdin)
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
	if _, err := os.Stdout.Write(out); err != nil {
		return err
	}
	if *stats {
		raw, comp := len(in), len(out)
		if *decompress {
			raw, comp = len(out), len(in)
		}
		fmt.Fprintf(os.Stderr, "%s: raw %d bytes, compressed %d bytes, factor %.3f\n",
			scheme, raw, comp, repro.CompressionFactor(raw, comp))
	}
	return nil
}

// runGzipStream pipes stdin to stdout through the streaming codec.
func runGzipStream(decompress bool, level int, stats bool) error {
	if level == 0 {
		level = 9
	}
	var rawN, compN int64
	if decompress {
		zr := repro.NewGzipReader(os.Stdin)
		n, err := io.Copy(os.Stdout, zr)
		if err != nil {
			return err
		}
		rawN = n
	} else {
		zw, err := repro.NewGzipWriter(&countingWriter{w: os.Stdout, n: &compN}, level)
		if err != nil {
			return err
		}
		n, err := io.Copy(zw, os.Stdin)
		if err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		rawN = n
	}
	if stats {
		fmt.Fprintf(os.Stderr, "gzip (streaming): raw %d bytes", rawN)
		if !decompress {
			fmt.Fprintf(os.Stderr, ", compressed %d bytes, factor %.3f",
				compN, repro.CompressionFactor(int(rawN), int(compN)))
		}
		fmt.Fprintln(os.Stderr)
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n *int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}
