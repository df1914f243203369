module samsys/benchmark

go 1.22

require samsys v0.0.0

replace samsys => ../
