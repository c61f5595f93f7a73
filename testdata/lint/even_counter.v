// Fact-driven lint showcase: count starts at 0 and only ever steps by
// 2, so known bits alone prove count[0] == 0 in every reachable cycle
// (bit 0 of count + 2 stays known). That invariant makes the count[0]
// branch dead, the odd case arms unreachable, and flag (assigned only
// on those paths) a constant net.
module even_counter(input clk, input en, output reg [7:0] count, output reg flag);
  initial count = 8'd0;
  initial flag = 1'b0;
  always @(posedge clk) begin
    if (en) count <= count + 8'd2;
    if (count[0]) flag <= 1'b1;
    case (count[1:0])
      2'b00: ;
      2'b01: flag <= 1'b1;
      2'b10: ;
      2'b11: flag <= 1'b1;
    endcase
  end
endmodule
