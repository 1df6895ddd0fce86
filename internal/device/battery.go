package device

// Battery converts the experiments' joule figures into the quantity the
// paper's title is about: battery life. The paper measures current with
// the batteries disconnected (5 V external supply); a battery is modeled
// by its usable energy content.
type Battery struct {
	// CapacityJ is the usable energy in joules.
	CapacityJ float64
}

// IPAQBattery returns the iPAQ 3650's battery: a 1500 mAh Li-polymer pack
// at 3.7 V nominal ≈ 19,980 J usable.
func IPAQBattery() Battery {
	return Battery{CapacityJ: 1500.0 / 1000 * 3.7 * 3600}
}

// Operations returns how many operations of the given energy cost fit in
// one charge.
func (b Battery) Operations(perOpJ float64) int {
	if perOpJ <= 0 {
		return 0
	}
	return int(b.CapacityJ / perOpJ)
}

// LifeExtension returns the multiplicative battery-life gain of an
// optimisation that reduces per-operation energy from baseJ to newJ.
func (b Battery) LifeExtension(baseJ, newJ float64) float64 {
	if newJ <= 0 || baseJ <= 0 {
		return 0
	}
	return baseJ / newJ
}
