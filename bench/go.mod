module tsu/bench

go 1.24

require tsu v0.0.0

replace tsu => ../
