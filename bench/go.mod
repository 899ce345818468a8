module sushi/bench

go 1.24.0

require sushi v0.0.0

replace sushi => ../
