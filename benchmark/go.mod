module sybilwild/benchmark

go 1.22

require sybilwild v0.0.0

replace sybilwild => ../
