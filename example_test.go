package repro_test

// Testable godoc examples for the public API. Outputs are deterministic:
// the model constants are the paper's, and the codecs and corpus are
// seeded.

import (
	"fmt"

	"repro"
)

// The paper's fitted download-energy line at 11 Mb/s.
func ExampleEnergyModel() {
	model := repro.Params11Mbps()
	fmt.Printf("E(1 MB) = %.2f J\n", model.DownloadEnergy(1.0))
	fmt.Printf("idle time of a 3 MB download: %.1f s\n", model.IdleTime(3.0))
	// Output:
	// E(1 MB) = 3.53 J
	// idle time of a 3 MB download: 2.0 s
}

// Equation 6: compress only when the factor clears the threshold.
func ExampleShouldCompress() {
	fmt.Println(repro.ShouldCompress(1_000_000, 800_000)) // factor 1.25
	fmt.Println(repro.ShouldCompress(1_000_000, 900_000)) // factor 1.11
	fmt.Println(repro.ShouldCompress(2_000, 200))         // below 3900 B
	// Output:
	// true
	// false
	// false
}

// Round-trip through the gzip codec.
func ExampleNewCodec() {
	c, err := repro.NewCodec(repro.Gzip, 9)
	if err != nil {
		panic(err)
	}
	data := []byte("compress me, compress me, compress me, compress me")
	comp, _ := c.Compress(data)
	back, _ := c.DecompressAppend(nil, comp, len(data))
	fmt.Println(string(back) == string(data))
	fmt.Println(len(comp) < len(data))
	// Output:
	// true
	// true
}

// A complete simulated experiment: download a compressible file with
// interleaved decompression and compare against the plain download.
func ExampleRunExperiment() {
	data := make([]byte, 600_000)
	for i := range data {
		data[i] = byte("energy model "[i%13])
	}
	plain, _ := repro.RunExperiment(repro.ExperimentSpec{Data: data, Mode: repro.ModePlain})
	comp, _ := repro.RunExperiment(repro.ExperimentSpec{
		Data: data, Scheme: repro.Gzip, Mode: repro.ModeInterleaved,
	})
	fmt.Println(comp.ExactEnergyJ < plain.ExactEnergyJ/2)
	// Output:
	// true
}

// The sleep-vs-interleave crossover the paper derives in Section 4.2.
func ExampleEnergyModel_sleepCrossover() {
	model := repro.Params11Mbps()
	fmt.Printf("sleep beats interleaving above factor %.1f (paper: 4.6)\n",
		model.SleepCrossoverFactor())
	// Output:
	// sleep beats interleaving above factor 4.4 (paper: 4.6)
}
