package huffman

import (
	"fmt"

	"repro/internal/bitio"
)

// DecodeMSB decodes one symbol from an MSB-first stream (the bzip2-style
// orientation) using the lookup tables: the one-symbol decode AppendMSB is
// a loop of, which the tests hold it to.
func (d *Decoder) DecodeMSB(br *bitio.MSBReader) (int, error) {
	t := d.msbTable()
	v := br.PeekBits(t.peek)
	e := t.slots[v>>(t.peek-t.rootBits)]
	if e&slotPtr != 0 {
		shift := t.peek - t.rootBits - uint(e&slotLen)
		e = t.slots[e>>8+uint32(v>>shift)&(1<<(e&slotLen)-1)]
	}
	if e&slotLen == 0 {
		return 0, fmt.Errorf("huffman: invalid code %#b", v)
	}
	br.Consume(uint(e & slotLen))
	if err := br.Err(); err != nil {
		return 0, err
	}
	return int(e >> 8), nil
}
