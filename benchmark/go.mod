module atom/benchmark

go 1.24

require atom v0.0.0

replace atom => ../
