module r3c3(input clk, input rst, output reg [3:0] q);
//DUT_BEHAVIOR:score:0:16
  always @(posedge clk) q <= rst ? 4'd0 : q + 4'd1;
endmodule