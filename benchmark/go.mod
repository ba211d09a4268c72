module hjdes/benchmark

go 1.22

require hjdes v0.0.0

replace hjdes => ../
