// Fixture for the faultpath analyzer. The directory is named guest so the
// analyzer treats the local Device like the real internal/guest API.
package guest

// Buffer mirrors guest.Buffer just enough to typecheck.
type Buffer struct {
	Addr uint64
	Size uint64
}

// Device mirrors the fault-injectable boundary surface.
type Device struct{}

func (d *Device) AllocDMA(n uint64) (Buffer, error)             { return Buffer{Size: n}, nil }
func (d *Device) SetupStateBuffer() (Buffer, error)             { return Buffer{}, nil }
func (d *Device) Start() error                                  { return nil }
func (d *Device) Run() error                                    { return nil }
func (d *Device) Wait() error                                   { return nil }
func (d *Device) RegWrite(i int, v uint64) error                { return nil }
func (d *Device) Write(b Buffer, off uint64, data []byte) error { return nil }
func (d *Device) RegRead(i int) (uint64, error)                 { return 0, nil } // not a boundary
func (d *Device) WorkDone() (uint64, error)                     { return 0, nil }

// dropsEverything discards boundary errors in every way the analyzer flags.
func dropsEverything(d *Device) {
	d.AllocDMA(1 << 20)      // want "guest.AllocDMA can fail under fault injection and its error is discarded"
	d.SetupStateBuffer()     // want "guest.SetupStateBuffer can fail under fault injection and its error is discarded"
	d.Start()                // want "guest.Start can fail under fault injection and its error is discarded"
	d.Run()                  // want "guest.Run can fail under fault injection and its error is discarded"
	buf, _ := d.AllocDMA(64) // want "guest.AllocDMA can fail under fault injection and its error is assigned to _"
	d.RegWrite(0, 1)         // want "guest.RegWrite can fail under fault injection and its error is discarded"
	_ = d.RegWrite(1, 2)     // want "guest.RegWrite can fail under fault injection and its error is assigned to _"
	d.Write(buf, 0, nil)     // want "guest.Write can fail under fault injection and its error is discarded"
	_ = d.Write(buf, 0, nil) // want "guest.Write can fail under fault injection and its error is assigned to _"
	_ = d.regBase()
}

// handlesEverything is the conforming pattern: no findings.
func handlesEverything(d *Device) error {
	buf, err := d.AllocDMA(1 << 20)
	if err != nil {
		return err
	}
	_ = buf
	if _, err := d.SetupStateBuffer(); err != nil {
		return err
	}
	if err := d.RegWrite(0, uint64(buf.Addr)); err != nil {
		return err
	}
	if err := d.Write(buf, 0, []byte{1}); err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	return d.Wait()
}

// annotated drops are sanctioned when marked: an adversarial model or a
// teardown path may shrug off the failure deliberately.
func annotated(d *Device) {
	//optimus:fault-ok — adversary ignores rejections by design
	d.Start()
	d.Run() //optimus:fault-ok
}

// nonBoundaries never trip the check even when dropped: reads change no
// state, WorkDone's error is consumed, and regBase has no error.
func nonBoundaries(d *Device) uint64 {
	d.RegRead(0)
	w, _ := d.WorkDone()
	return w
}

func (d *Device) regBase() uint64 { return 0 }
