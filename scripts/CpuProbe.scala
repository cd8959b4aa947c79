package repro.core

/** Thread CPU time of the sketch work in perfbench's `ingest` and `rollup`,
  * without their data generation, checks and JVM start-up:
  *  - `build`: 256 chunk sketches of 2^14 uniform doubles each, each encoded
  *    with `toBytes` (`rollup`'s set-up);
  *  - `fold`: `fromBytes` and left-fold `merge` of those chunks, then
  *    `toBytes` (one `rollup` pass), split into `decode` (every
  *    `fromBytes`), `merge` (every `merge`) and `encode` (the `toBytes`), so
  *    a `rollup` change can be pinned to a layer;
  *  - `ingest`: one sketch fed all 2^22 doubles;
  *  - `level0`: one `RelativeCompactor` of `ingest`'s level-0 size (k = 164,
  *    19 sections) fed all 2^22 doubles, running its scheduled compaction
  *    (`compactInto`) whenever full, each output merged into a fresh level
  *    and dropped: the tail sort and compaction without the levels above.
  *    (In the package so it can reach `compactInto`.)
  * The doubles are uniform in [0, 1) unless a third argument names another
  * stream, which feeds the sort kernels tails of another shape:
  *  - `clustered`: 1 in 64 uniform, the rest in [0.5, 0.5 + 1e-9);
  *  - `dups`: the integers 0 to 7;
  *  - `signed`: uniform in [−1, 1);
  *  - `normal`: normal(0, 1);
  *  - `rounded`: uniform in [0, 1) rounded to a multiple of 0.001;
  *  - `bits`: uniform raw 64-bit patterns, NaNs among them (which `update`
  *    skips and `level0` stores).
  * The last four give the wire format levels of other shapes: keys of both
  * signs, many equal keys, and (only `bits`) blocks of gaps wider than 56
  * bits.
  * Prints the median over `rounds` rounds, the first two dropped as warm-up;
  * for the last round's `fold` result and `ingest` sketch, `toBytes` bytes
  * per stored item and a SHA-256 of the sketch state (parameters, level
  * sizes and schedule states, and the coreset's items and weights), which
  * does not depend on the wire format, so one run per commit compares
  * sketch state as well as time; and, before any round, the thread CPU of
  * the JVM's first `toBytes` and first `fromBytes`, of a sketch fed all
  * 2^22 doubles (`cold_encode_ms`, `cold_decode_ms`).
  *
  * Compile against a commit's main sources and run, one JVM per commit and
  * seed, with the Scala compiler in Spark's jars (from the repository root):
  * {{{
  * mkdir -p .bench_build/probe
  * java -cp "$SPARK_HOME/jars/"\* scala.tools.nsc.Main -usejavacp -d .bench_build/probe \
  *   $(find src/main/scala -name '*.scala') scripts/CpuProbe.scala
  * java -Xmx2g -cp .bench_build/probe:"$SPARK_HOME/jars/"\* repro.core.CpuProbe <seed> <rounds> [stream]
  * }}}
  */
object CpuProbe {
  def main(args: Array[String]): Unit = {
    val seed = args(0).toLong
    val rounds = args(1).toInt
    val (chunks, c) = (256, 1 << 14)
    val rng = new java.util.Random(seed)
    val next: () => Double = args.lift(2).getOrElse("uniform") match {
      case "uniform" => () => rng.nextDouble()
      case "clustered" => () => if (rng.nextInt(64) == 0) rng.nextDouble() else 0.5 + 1e-9 * rng.nextDouble()
      case "dups" => () => rng.nextInt(8).toDouble
      case "signed" => () => 2 * rng.nextDouble() - 1
      case "normal" => () => rng.nextGaussian()
      case "rounded" => () => math.rint(rng.nextDouble() * 1000) / 1000
      case "bits" => () => java.lang.Double.longBitsToDouble(rng.nextLong())
    }
    val data = Array.fill(chunks * c)(next())
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
    def ms(f: => Unit): Double = {
      val t0 = mx.getCurrentThreadCpuTime; f; (mx.getCurrentThreadCpuTime - t0) / 1e6
    }
    def feed(s: ReqSketch, from: Int, until: Int): ReqSketch = {
      var i = from
      while (i < until) { s.update(data(i)); i += 1 }
      s
    }
    val coldSketch = feed(ReqSketch(0.01, 0.05, Practical, seed), 0, data.length)
    var cold: Array[Byte] = null
    val coldEncode = ms { cold = ReqSketch.toBytes(coldSketch) }
    val coldDecode = ms { ReqSketch.fromBytes(cold) }
    val times = Array.fill(7)(new Array[Double](rounds)) // build, fold, decode, merge, encode, ingest, level0
    var (foldState, ingestState) = ("", "")
    var (foldPerItem, ingestPerItem) = (0.0, 0.0)
    for (r <- 0 until rounds) {
      var bytes: Array[Array[Byte]] = null
      times(0)(r) = ms {
        bytes = Array.tabulate(chunks) { i =>
          ReqSketch.toBytes(feed(ReqSketch(0.01, 0.05, Practical, ReqSpark.mixSeed(seed, i)), i * c, (i + 1) * c))
        }
      }
      times(1)(r) = ms {
        var acc: ReqSketch = null
        for (i <- 0 until chunks) {
          var chunk: ReqSketch = null
          times(2)(r) += ms { chunk = ReqSketch.fromBytes(bytes(i)) }
          times(3)(r) += ms { acc = if (acc == null) chunk else acc.merge(chunk) }
        }
        var folded: Array[Byte] = null
        times(4)(r) = ms { folded = ReqSketch.toBytes(acc) }
        foldState = stateSha(acc)
        foldPerItem = folded.length.toDouble / acc.itemsStored
      }
      var s: ReqSketch = null
      times(5)(r) = ms { s = feed(ReqSketch(0.01, 0.05, Practical, seed), 0, data.length) }
      ingestState = stateSha(s)
      ingestPerItem = ReqSketch.toBytes(s).length.toDouble / s.itemsStored
      val coin = new java.util.Random(seed)
      times(6)(r) = ms {
        val level = new RelativeCompactor(164, 19)
        var i = 0
        while (i < data.length) {
          level.insert(data(i))
          if (level.isAtCapacity) level.compactInto(level.scheduledStart, coin.nextBoolean())(new RelativeCompactor(2, 2))
          i += 1
        }
      }
    }
    def median(a: Array[Double]): Double = { val s = a.drop(2).sorted; s(s.length / 2) }
    val names = Seq("build", "fold", "decode", "merge", "encode", "ingest", "level0")
    println(names.zip(times).map { case (n, t) => f"${n}_ms ${median(t)}%.1f" }.mkString(" ") +
      f" cold_encode_ms $coldEncode%.2f cold_decode_ms $coldDecode%.2f" +
      f" fold_bytes_per_item $foldPerItem%.4f ingest_bytes_per_item $ingestPerItem%.4f" +
      s" fold_state $foldState ingest_state $ingestState")
  }

  /** A SHA-256 of the sketch's state, independent of the wire format. */
  private def stateSha(s: ReqSketch): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val b = java.nio.ByteBuffer.allocate(8)
    def put(x: Long): Unit = { b.clear(); md.update(b.putLong(x).array()) }
    Seq(s.n, s.nBound, s.sectionSize.toLong, s.bufferCapacity.toLong).foreach(put)
    (0 to s.height).foreach { h => put(s.levelSizes(h).toLong); put(s.levelState(h)) }
    s.coreset.foreach { case (x, w) => put(java.lang.Double.doubleToRawLongBits(x)); put(w) }
    md.digest().map("%02x".format(_)).mkString
  }
}
