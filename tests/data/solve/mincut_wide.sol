cmssolution 1
cost 75
assign i0 0
assign i1 0
assign i2 0
assign i3 0
assign i4 0
assign i5 0
assign i6 0
assign i7 0
assign i8 0
assign i9 0
assign i10 0
assign i11 0
assign i12 0
assign i13 0
assign i14 0
assign i15 0
assign i16 0
assign i17 0
assign i18 0
assign i19 0
assign i20 0
assign i21 0
assign i22 0
assign i23 0
assign i24 0
assign i25 0
assign i26 0
assign i27 0
assign i28 0
assign i29 0
voter v0 dissat 7
voter v1 dissat 10
voter v2 dissat 8
voter v3 dissat 13
voter v4 dissat 10
voter v5 dissat 13
voter v6 dissat 9
voter v7 dissat 5
