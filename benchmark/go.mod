module fesplit/benchmark

go 1.22

require fesplit v0.0.0

replace fesplit => ../
