// Pipeline: the finite-buffer idiom of Figure 1 (example 3). A producer
// streams items to a consumer through four storage slots; renaming a value
// reuses its storage only after the consumer has finished with it, so the
// buffer never overflows and neither side ever spins.
package main

import (
	"fmt"
	"log"

	sam "samsys"
	"samsys/internal/fabric/simfab"
	"samsys/internal/machine"
	"samsys/internal/pack"
)

const (
	items = 16
	slots = 4
)

func main() {
	fab := simfab.New(machine.Paragon, 2)
	world := sam.New(fab)
	name := func(i int) sam.Name { return sam.N2(1, 0, i) }

	err := world.Run(func(c *sam.Ctx) {
		switch c.Node() {
		case 0: // producer
			for i := 0; i < items; i++ {
				var buf pack.Float64s
				var ref sam.CreateRef
				if i < slots {
					buf, ref = sam.CreateInPlace(c, name(i), make(pack.Float64s, 4), 1)
				} else {
					// Reuse the storage of item i-4; SAM suspends us here
					// until the consumer has consumed it.
					buf, ref = sam.Rename[pack.Float64s](c, name(i-slots), name(i), 1)
				}
				for k := range buf {
					buf[k] = float64(i*10 + k)
				}
				ref.Publish()
				c.Compute(5e4) // produce the next item
			}
		case 1: // consumer
			sum := 0.0
			for i := 0; i < items; i++ {
				v, ref := sam.Use[pack.Float64s](c, name(i))
				for _, x := range v {
					sum += x
				}
				ref.Release()
				c.DoneValue(name(i), 1) // lets the producer reuse the slot
				c.Compute(2e5)          // consume slower than production
			}
			fmt.Printf("consumer: processed %d items, sum=%.0f, finished at %v\n",
				items, sum, c.Now())
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elapsed: %v; producer messages: %d\n",
		fab.Elapsed(), fab.Counters(0).Messages)
}
