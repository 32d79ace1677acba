cmssolution 1
cost 3
assign i0 0
assign i1 2
assign i2 1
assign i3 2
assign i4 0
assign i5 1
assign i6 1
assign i7 0
assign i8 2
assign i9 1
assign i10 0
assign i11 1
voter v0 dissat 0
voter v1 dissat 0
voter v2 dissat 0
voter v3 dissat 2
voter v4 dissat 1
voter v5 dissat 0
