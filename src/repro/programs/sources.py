"""W2 source generators for the paper's evaluation programs.

The five programs of Table 7-1 are reconstructed from their one-line
descriptions in Section 7 plus the systolic-algorithm conventions the
paper cites (Kung, "Systolic Algorithms for the CMU Warp Processor").
All of them are *homogeneous* (every cell runs the same code) and use the
send/receive conservation idiom demonstrated in Figure 4-1: every cell
consumes and produces the same number of items per phase, padding with an
extra item at the end where necessary.

Sizes are parameters with the paper's values as defaults; cycle-level
simulation tests use smaller instances.
"""

from __future__ import annotations


def polynomial(n_points: int = 100, n_cells: int = 10) -> str:
    """Figure 4-1: Horner's-rule evaluation of a polynomial.

    One coefficient per cell; ``n_cells`` is also the number of
    coefficients.  Evaluates ``P(z) = c[0]*z^(K-1) + ... + c[K-1]`` for
    ``n_points`` input values.
    """
    k = n_cells
    return f"""
/* Polynomial evaluation (Figure 4-1 of the paper).             */
/* A polynomial with {k} coefficients is evaluated for          */
/* {n_points} data points on {k} cells.                         */
module polynomial (z in, c in, results out)
float z[{n_points}], c[{k}];
float results[{n_points}];
cellprogram (cid : 0 : {k - 1})
begin
    function poly
    begin
        float coeff,        /* local copy of c[cid] */
              temp,
              xin, yin, ans;  /* temporaries */
        int i;

        /* Every cell saves the first coefficient that reaches it,
           consumes the data and passes the remaining coefficients.
           Every cell generates an additional item at the end to
           conserve the number of receives and sends. */
        receive (L, X, coeff, c[0]);
        for i := 1 to {k - 1} do begin
            receive (L, X, temp, c[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        /* Implementing Horner's rule, each cell multiplies the
           accumulated result yin with incoming data xin and adds the
           next coefficient. */
        for i := 0 to {n_points - 1} do begin
            receive (L, X, xin, z[i]);
            receive (L, Y, yin, 0.0);
            send (R, X, xin);
            ans := coeff + yin*xin;
            send (R, Y, ans, results[i]);
        end;
    end
    call poly;
end
"""


def conv1d(n_points: int = 512, kernel_size: int = 9) -> str:
    """Table 7-1 "1d-Conv": 1-dimensional convolution, one kernel element
    per cell (after Kung's systolic design, the paper's reference [5]).

    The x stream is delayed by one position per cell (the ``xold``
    register) while partial sums flow undelayed, so cell ``k`` adds
    ``w[k] * x[i-k]`` and the last cell emits the full convolution
    ``y[i] = sum_j w[j] * x[i-j]`` (valid from ``i = kernel_size - 1``;
    the leading ``kernel_size - 1`` outputs are the zero-padded ramp-up).
    Every cell receives and sends exactly one item per channel per
    iteration, so the counts conserve without padding tricks.
    """
    k = kernel_size
    return f"""
/* Simple 1-dimensional convolution for a kernel of size {k},    */
/* one kernel element per cell.                                  */
module conv1d (x in, w in, y out)
float x[{n_points}], w[{k}];
float y[{n_points}];
cellprogram (cid : 0 : {k - 1})
begin
    function conv
    begin
        float weight, temp, xin, xold, yin, ans;
        int i;

        /* Distribute one kernel element to each cell. */
        receive (L, X, weight, w[0]);
        for i := 1 to {k - 1} do begin
            receive (L, X, temp, w[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        /* Partial sums move one cell per item; x moves at half speed
           (one item of delay per cell via the xold register). */
        xold := 0.0;
        for i := 0 to {n_points - 1} do begin
            receive (L, X, xin, x[i]);
            receive (L, Y, yin, 0.0);
            ans := yin + weight*xin;
            send (R, X, xold);
            send (R, Y, ans, y[i]);
            xold := xin;
        end;
    end
    call conv;
end
"""


def binop(
    width: int = 512, height: int = 512, n_cells: int = 10, op: str = "+"
) -> str:
    """Table 7-1 "Binop": an elementwise binary operator over an image.

    Parallel mode: pixels are dealt round-robin to the cells in groups of
    ``n_cells``; each cell computes one result per group and the results
    are collected through the array.  Host arrays are padded up to a
    multiple of the array size (the feeder pads with zeros).
    """
    if op not in ("+", "-", "*"):
        raise ValueError(f"unsupported binop operator: {op!r}")
    total = width * height
    groups = -(-total // n_cells)  # ceil division
    padded = groups * n_cells
    c = n_cells
    return f"""
/* Binary operator on an image with {width}x{height} elements,   */
/* dealt round-robin to {c} cells ({groups} groups; host arrays  */
/* are padded to {padded} elements).                              */
module binop (a in, b in, c out)
float a[{padded}], b[{padded}];
float c[{padded}];
cellprogram (cid : 0 : {c - 1})
begin
    function apply
    begin
        float av, bv, t1, t2, r;
        int g, j;

        for g := 0 to {groups - 1} do begin
            /* Deal one operand pair to every cell: keep the first pair,
               forward the rest, and pad to conserve send/receive counts. */
            receive (L, X, av, a[{c}*g]);
            receive (L, Y, bv, b[{c}*g]);
            for j := 1 to {c - 1} do begin
                receive (L, X, t1, a[{c}*g + j]);
                receive (L, Y, t2, b[{c}*g + j]);
                send (R, X, t1);
                send (R, Y, t2);
            end;
            send (R, X, 0.0);
            send (R, Y, 0.0);

            r := av {op} bv;

            /* Collect: emit own result, then forward the results of the
               cells to the left; the last cell emits the group in
               descending pixel order. */
            send (R, X, r, c[{c}*g + {c - 1}]);
            for j := 1 to {c - 1} do begin
                receive (L, X, t1, 0.0);
                send (R, X, t1, c[{c}*g + {c - 1} - j]);
            end;
            receive (L, X, t1, 0.0);
        end;
    end
    call apply;
end
"""


def colorseg(width: int = 512, height: int = 512, n_cells: int = 10) -> str:
    """Table 7-1 "ColorSeg": colour separation based on colour values.

    Pipeline mode: each cell holds one reference colour (a point in a 2-D
    colour plane plus a squared-distance threshold and a class label) and
    classifies every pixel that streams by, overriding the running label
    when the pixel is within its threshold.  Later cells take precedence.
    """
    c = n_cells
    pixels = width * height
    return f"""
/* Colour separation in a {width}x{height} image based on colour  */
/* values: a cascade of {c} reference-colour classifiers.          */
module colorseg (u in, v in, refu in, refv in, radius in, class in,
                 labels out)
float u[{pixels}], v[{pixels}];
float refu[{c}], refv[{c}], radius[{c}], class[{c}];
float labels[{pixels}];
cellprogram (cid : 0 : {c - 1})
begin
    function segment
    begin
        float cu, cv, r2, cls, temp;
        float pu, pv, lab, du, dv, dist, newlab;
        int i, p;

        /* Distribute the per-cell classifier parameters. */
        receive (L, X, cu, refu[0]);
        for i := 1 to {c - 1} do begin
            receive (L, X, temp, refu[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        receive (L, X, cv, refv[0]);
        for i := 1 to {c - 1} do begin
            receive (L, X, temp, refv[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        receive (L, X, r2, radius[0]);
        for i := 1 to {c - 1} do begin
            receive (L, X, temp, radius[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        receive (L, X, cls, class[0]);
        for i := 1 to {c - 1} do begin
            receive (L, X, temp, class[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        /* Classify every pixel against this cell's reference colour. */
        for p := 0 to {pixels - 1} do begin
            receive (L, X, pu, u[p]);
            receive (L, Y, pv, v[p]);
            receive (L, X, lab, 0.0);
            du := pu - cu;
            dv := pv - cv;
            dist := du*du + dv*dv;
            if dist <= r2 then
                newlab := cls;
            else
                newlab := lab;
            send (R, X, pu);
            send (R, Y, pv);
            send (R, X, newlab, labels[p]);
        end;
    end
    call segment;
end
"""


def mandelbrot(width: int = 32, height: int = 32, n_iters: int = 4) -> str:
    """Table 7-1 "Mandelbrot": fixed-iteration Mandelbrot on one cell.

    For every point c = (cx, cy) the cell iterates ``z := z^2 + c`` a
    fixed ``n_iters`` times and outputs the number of iterations for
    which ``|z|^2`` stayed within 4.0 (a float in ``0 .. n_iters``).
    """
    pixels = width * height
    return f"""
/* Mandelbrot for a {width}x{height} image and {n_iters} iterations */
/* on one cell.                                                      */
module mandelbrot (cx in, cy in, counts out)
float cx[{pixels}], cy[{pixels}];
float counts[{pixels}];
cellprogram (cid : 0 : 0)
begin
    function mandel
    begin
        float ax, ay, zr, zi, zr2, zi2, mag, cnt, nzr;
        int p, it;

        for p := 0 to {pixels - 1} do begin
            receive (L, X, ax, cx[p]);
            receive (L, Y, ay, cy[p]);
            zr := 0.0;
            zi := 0.0;
            cnt := 0.0;
            for it := 1 to {n_iters} do begin
                zr2 := zr*zr;
                zi2 := zi*zi;
                mag := zr2 + zi2;
                nzr := zr2 - zi2 + ax;
                zi := 2.0*zr*zi + ay;
                zr := nzr;
                if mag <= 4.0 then
                    cnt := cnt + 1.0;
            end;
            send (R, X, cnt, counts[p]);
        end;
    end
    call mandel;
end
"""


def matmul(n: int = 64, n_cells: int = 8) -> str:
    """Matrix multiplication ``C = A * B`` (Section 2.2's motivating
    mapping: each cell computes some columns of the result, holding the
    corresponding columns of B in its local memory).

    ``n`` must be divisible by ``n_cells``.
    """
    if n % n_cells != 0:
        raise ValueError("matrix size must be divisible by the cell count")
    c = n_cells
    cpc = n // n_cells  # columns per cell
    return f"""
/* Matrix multiplication C = A*B for {n}x{n} matrices on {c}     */
/* cells; each cell owns {cpc} columns of B and of C.            */
module matmul (a in, b in, c out)
float a[{n}, {n}], b[{n}, {n}];
float c[{n}, {n}];
cellprogram (cid : 0 : {c - 1})
begin
    function mm
    begin
        float bcol[{cpc * n}], arow[{n}], acc, t;
        int i, j, g, kk;

        /* Load phase: deal the columns of B round-robin; this cell
           keeps columns g*{c} + cid for every group g. */
        for g := 0 to {cpc - 1} do
            for i := 0 to {n - 1} do begin
                receive (L, X, t, b[i, {c}*g]);
                bcol[{n}*g + i] := t;
                for j := 1 to {c - 1} do begin
                    receive (L, X, t, b[i, {c}*g + j]);
                    send (R, X, t);
                end;
                send (R, X, 0.0);
            end;

        /* Compute phase: each row of A streams through every cell;
           each cell forms the dot products with its resident columns
           and the results are collected through the Y channel. */
        for i := 0 to {n - 1} do begin
            for kk := 0 to {n - 1} do begin
                receive (L, X, t, a[i, kk]);
                arow[kk] := t;
                send (R, X, t);
            end;
            for g := 0 to {cpc - 1} do begin
                acc := 0.0;
                for kk := 0 to {n - 1} do
                    acc := acc + arow[kk] * bcol[{n}*g + kk];
                send (R, Y, acc, c[i, {c}*g + {c - 1}]);
                for j := 1 to {c - 1} do begin
                    receive (L, Y, t, 0.0);
                    send (R, Y, t, c[i, {c}*g + {c - 1} - j]);
                end;
                receive (L, Y, t, 0.0);
            end;
        end;
    end
    call mm;
end
"""


def conv2d(width: int = 512, height: int = 512) -> str:
    """Two-dimensional 3x3 convolution — the application the paper's
    introduction headlines ("two-dimensional convolution ... at a peak
    rate of 100 million floating-point operations per second").

    One kernel *row* per cell (3 cells).  Each cell delays the pixel
    stream by exactly one image row through a ring buffer in its 4K-word
    local memory (the ``rowbuf`` accesses are the IU's address stream at
    two references per pixel), slides a 3-pixel window over its row, and
    accumulates into the partial-sum stream:

        y[r, c] = sum_{i,j} k[i, j] * x[r-i, c-2+j]

    with zero padding above/left (ring buffers and window registers
    start at zero).  The window registers carry across row boundaries,
    so the two left-most columns of each row mix in the previous row's
    tail — callers compare the ``c >= 2`` interior (see the tests).
    """
    w = width
    return f"""
/* 3x3 convolution of a {width}x{height} image, one kernel row per    */
/* cell; each cell delays the stream one row via a ring buffer.       */
module conv2d (x in, k in, y out)
float x[{height}, {width}], k[3, 3];
float y[{height}, {width}];
cellprogram (cid : 0 : 2)
begin
    function conv
    begin
        float w0, w1, w2, temp, xin, x1, x2, yin, acc, old;
        float rowbuf[{w}];
        int i, r, c;

        /* Distribute one kernel row (three weights) to each cell. */
        receive (L, X, w0, k[0, 0]);
        for i := 1 to 2 do begin
            receive (L, X, temp, k[i, 0]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);
        receive (L, X, w1, k[0, 1]);
        for i := 1 to 2 do begin
            receive (L, X, temp, k[i, 1]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);
        receive (L, X, w2, k[0, 2]);
        for i := 1 to 2 do begin
            receive (L, X, temp, k[i, 2]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        x1 := 0.0;
        x2 := 0.0;
        for r := 0 to {height - 1} do
            for c := 0 to {w - 1} do begin
                receive (L, X, xin, x[r, c]);
                receive (L, Y, yin, 0.0);
                acc := yin + w0*x2 + w1*x1 + w2*xin;
                old := rowbuf[c];
                rowbuf[c] := xin;
                send (R, X, old);
                send (R, Y, acc, y[r, c]);
                x2 := x1;
                x1 := xin;
            end;
    end
    call conv;
end
"""


def fir_bank(
    n_points: int = 256, n_filters: int = 10, n_taps: int = 8
) -> str:
    """A bank of FIR filters in *parallel mode* (Section 3): every cell
    owns one filter, the signal is broadcast through the array, and each
    sample's bank of outputs is collected through the Y channel.

    ``y[f, i] = sum_k taps[f, k] * x[i - k]`` (zero history).  Each cell
    keeps its taps and a sliding window in local memory, so both the tap
    distribution and the per-sample dot product run on IU-generated
    addresses.
    """
    c, t = n_filters, n_taps
    forward_taps = (
        f"""
            for j := 1 to {c - 1} do begin
                receive (L, X, t1, taps[j, k]);
                send (R, X, t1);
            end;"""
        if c > 1
        else ""
    )
    shift_window = (
        f"""
            for k := {t - 1} downto 1 do
                xbuf[k] := xbuf[k - 1];"""
        if t > 1
        else ""
    )
    forward_results = (
        f"""
            for j := 1 to {c - 1} do begin
                receive (L, Y, t1, 0.0);
                send (R, Y, t1, y[{c - 1} - j, i]);
            end;"""
        if c > 1
        else ""
    )
    return f"""
/* A bank of {c} FIR filters ({t} taps each) over a {n_points}-sample  */
/* signal; one filter per cell (parallel mode).                        */
module firbank (x in, taps in, y out)
float x[{n_points}], taps[{c}, {t}];
float y[{c}, {n_points}];
cellprogram (cid : 0 : {c - 1})
begin
    function bank
    begin
        float w[{t}], xbuf[{t}], t1, acc, xin;
        int i, j, k;

        /* Distribute tap k of every filter; this cell keeps its own. */
        for k := 0 to {t - 1} do begin
            receive (L, X, t1, taps[0, k]);
            w[k] := t1;{forward_taps}
            send (R, X, 0.0);
        end;

        for k := 0 to {t - 1} do
            xbuf[k] := 0.0;

        for i := 0 to {n_points - 1} do begin
            receive (L, X, xin, x[i]);
            send (R, X, xin);

            /* Slide the window and take the dot product. */{shift_window}
            xbuf[0] := xin;
            acc := 0.0;
            for k := 0 to {t - 1} do
                acc := acc + w[k]*xbuf[k];

            /* Collect this sample's bank of results. */
            send (R, Y, acc, y[{c - 1}, i]);{forward_results}
            receive (L, Y, t1, 0.0);
        end;
    end
    call bank;
end
"""


def passthrough(n_points: int = 16, n_cells: int = 3) -> str:
    """A minimal pipeline that forwards a stream unchanged.

    Useful as the smallest end-to-end test of compilation, skew analysis
    and simulation.
    """
    return f"""
module passthrough (din in, dout out)
float din[{n_points}];
float dout[{n_points}];
cellprogram (cid : 0 : {n_cells - 1})
begin
    float t;
    int i;
    for i := 0 to {n_points - 1} do begin
        receive (L, X, t, din[i]);
        send (R, X, t, dout[i]);
    end;
end
"""


def deep_nest(depth: int = 25, n_points: int = 4, n_cells: int = 2) -> str:
    """A stream scaled and offset inside ``depth`` nested one-trip loops.

    Deeper than the 20 statically nested blocks Python allows in one
    function, so it guards every layer that walks or generates code for
    the loop tree against assuming shallow nests.
    """
    loops = "".join(
        f"    for k{d} := 0 to 0 do begin\n" for d in range(depth)
    )
    ends = "    end;\n" * depth
    names = ", ".join(f"k{d}" for d in range(depth))
    return f"""
module deepnest (din in, dout out)
float din[{n_points}];
float dout[{n_points}];
cellprogram (cid : 0 : {n_cells - 1})
begin
    float t;
    int i, {names};
{loops}    for i := 0 to {n_points - 1} do begin
        receive (L, X, t, din[i]);
        send (R, X, t * 2.0 + 1.0, dout[i]);
    end;
{ends}end
"""


def bidirectional_exchange(n_points: int = 8, n_cells: int = 4) -> str:
    """Figure 5-1 program A: bidirectional traffic with *unrelated* data,
    hence no communication cycle in either direction.

    Each cell forwards a constant to the left and an (unrelated)
    constant to the right.  The program is homogeneous and cycle-free,
    but still bidirectional, so the paper's compiler (and ours) rejects
    it; the communication-graph analysis classifies it as acyclic.
    """
    return f"""
module exchange (din in, dout out)
float din[{n_points}];
float dout[{n_points}];
cellprogram (cid : 0 : {n_cells - 1})
begin
    float t, u;
    int i;
    for i := 0 to {n_points - 1} do begin
        receive (L, X, t, din[i]);
        receive (R, Y, u, 0.0);
        send (R, X, 1.0, dout[i]);
        send (L, Y, 2.0);
    end;
end
"""


def bidirectional_cycle(n_points: int = 8, n_cells: int = 4) -> str:
    """Figure 5-1 program B: each cell sends on the data it receives, in
    both directions, creating both a right and a left communication
    cycle — unmappable onto the skewed computation model (Section 5.1.1).
    """
    return f"""
module bounce (din in, dout out)
float din[{n_points}];
float dout[{n_points}];
cellprogram (cid : 0 : {n_cells - 1})
begin
    float t, u;
    int i;
    for i := 0 to {n_points - 1} do begin
        receive (L, X, t, din[i]);
        send (R, X, t, dout[i]);
        receive (R, Y, u, 0.0);
        send (L, Y, u);
    end;
end
"""


#: The Table 7-1 evaluation set: name -> zero-argument source factory with
#: the paper's problem sizes.
TABLE_7_1_PROGRAMS = {
    "1d-Conv": conv1d,
    "Binop": binop,
    "ColorSeg": colorseg,
    "Mandelbrot": mandelbrot,
    "Polynomial": polynomial,
}
