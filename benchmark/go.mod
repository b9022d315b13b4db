module buckwild/benchmark

go 1.22

require buckwild v0.0.0

replace buckwild => ../
