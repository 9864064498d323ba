module tensat/bench

go 1.22

toolchain go1.24.0

require tensat v0.0.0

replace tensat => ../
