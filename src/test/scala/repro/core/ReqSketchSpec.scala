package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{Harness, Workloads}

/** Streaming behaviour of the full REQ sketch (Algorithm 2 + Section 5). */
class ReqSketchSpec extends AnyFunSuite {

  test("empty sketch: n=0, rank 0 everywhere, quantile NaN") {
    val s = ReqSketch(0.1, 0.1, seed = 1)
    assert(s.n == 0 && s.itemsStored == 0)
    assert(s.rank(123.0) == 0)
    assert(s.quantile(0.5).isNaN)
  }

  test("constructor validates eps and delta") {
    intercept[IllegalArgumentException](ReqSketch(eps = 0.0))
    intercept[IllegalArgumentException](ReqSketch(eps = 1.5))
    intercept[IllegalArgumentException](ReqSketch(delta = 0.0))
    intercept[IllegalArgumentException](ReqSketch(delta = 0.9))
  }

  test("small streams are stored exactly (no compaction below B)") {
    val s = ReqSketch(0.1, 0.1, seed = 2)
    val xs = Workloads.uniform(100, 5)
    s.updateAll(xs)
    assert(s.height == 0 && s.itemsStored == 100)
    val sorted = xs.sorted
    sorted.zipWithIndex.foreach { case (x, i) => assert(s.rank(x) == i + 1) }
  }

  for (n <- Seq(1, 2, 10, 63)) {
    test(s"exact ranks for every element at n=$n") {
      val s = ReqSketch(0.2, 0.2, seed = n)
      val xs = Workloads.uniform(n, n)
      s.updateAll(xs)
      val sorted = xs.sorted
      sorted.zipWithIndex.foreach { case (x, i) => assert(s.rank(x) == i + 1) }
    }
  }

  test("rank is monotone non-decreasing in the query") {
    val s = ReqSketch(0.05, 0.1, seed = 3)
    s.updateAll(Workloads.uniform(50000, 7))
    val qs = (0 to 100).map(_ / 100.0)
    val rs = qs.map(s.rank)
    assert(rs == rs.sorted)
  }

  test("rank of +inf equals totalWeight; rank below min is 0") {
    val s = ReqSketch(0.05, 0.1, seed = 4)
    s.updateAll(Workloads.uniform(30000, 9))
    assert(s.rank(Double.MaxValue) == s.totalWeight)
    assert(s.rank(-1.0) == 0)
  }

  test("totalWeight equals n before the first bound growth") {
    val s = ReqSketch(0.05, 0.1, seed = 5)
    val n0 = s.nBound
    (1 to n0.toInt).foreach(i => s.update(i.toDouble))
    assert(s.totalWeight == s.n)
  }

  test("totalWeight stays within 2% of n across growths (unbiased drift)") {
    for (seed <- 1 to 5) {
      val s = ReqSketch(0.05, 0.1, seed = seed)
      s.updateAll(Workloads.uniform(300000, seed))
      assert(math.abs(s.totalWeight - s.n) <= 0.02 * s.n,
        s"weight=${s.totalWeight} n=${s.n} (seed=$seed)")
    }
  }

  test("nBound squares when exceeded and never lags n") {
    val s = ReqSketch(0.1, 0.1, seed = 6)
    val n0 = s.nBound
    s.updateAll(Workloads.uniform((n0 + 10).toInt, 3))
    assert(s.nBound >= n0.toLong * n0 && s.nBound >= s.n)
  }

  test("parameters are recomputed on growth (k shrinks, B grows)") {
    val s = ReqSketch(0.05, 0.1, seed = 7)
    val (k0, b0) = (s.sectionSize, s.bufferCapacity)
    s.updateAll(Workloads.uniform(200000, 11))
    assert(s.sectionSize <= k0)
    assert(s.bufferCapacity >= b0)
  }

  test("height is bounded by log2(n/B) + 1 (Observation 12)") {
    val s = ReqSketch(0.05, 0.1, seed = 8)
    val n = 500000
    s.updateAll(Workloads.uniform(n, 13))
    val bound = math.ceil(math.log(n.toDouble / s.bufferCapacity) / math.log(2)).toInt + 1
    assert(s.height <= math.max(1, bound))
  }

  test("per-level sizes never exceed the buffer capacity after updates") {
    val s = ReqSketch(0.1, 0.1, seed = 9)
    s.updateAll(Workloads.uniform(100000, 15))
    s.levelSizes.foreach(sz => assert(sz <= s.bufferCapacity))
  }

  // Accuracy sweep: all orders × eps × distributions, fixed seeds. The
  // per-query guarantee is eps w.p. 1-delta; with a fixed seed we allow a
  // 1.5x cushion on the max over the whole rank grid.
  for {
    eps <- Seq(0.1, 0.05)
    order <- Workloads.orders
  } {
    test(s"relative error <= 1.5*eps on 100k uniform, order=$order, eps=$eps") {
      val data = Workloads.ordered(Workloads.uniform(100000, 21), order)
      val s = ReqSketch(eps, 0.1, Practical, seed = 31)
      s.updateAll(data)
      val p = Harness.errProfile(s.rank, data)
      assert(p.maxRel <= 1.5 * eps, f"maxRel=${p.maxRel}%.4f")
    }
  }

  for (profile <- Seq[ParamProfile](Theory, Practical, FixedK(32))) {
    test(s"relative error <= 1.5*eps with profile $profile on 80k items") {
      val eps = 0.1
      val data = Workloads.uniform(80000, 23)
      val s = ReqSketch(eps, 0.1, profile, seed = 33)
      s.updateAll(data)
      val p = Harness.errProfile(s.rank, data)
      assert(p.maxRel <= 1.5 * eps, f"profile=$profile maxRel=${p.maxRel}%.4f")
    }
  }

  test("duplicate-heavy input (zipf-like) keeps relative error") {
    val rng = new java.util.Random(41)
    val data = Array.fill(100000)(math.floor(1.0 / (rng.nextDouble() + 1e-4)))
    val s = ReqSketch(0.05, 0.1, seed = 43)
    s.updateAll(data)
    val p = Harness.errProfile(s.rank, data)
    assert(p.maxRel <= 0.075, f"maxRel=${p.maxRel}%.4f")
  }

  test("constant stream collapses to exact ranks") {
    val s = ReqSketch(0.1, 0.1, seed = 45)
    s.updateAll(Array.fill(50000)(42.0))
    assert(s.rank(41.9) == 0)
    assert(math.abs(s.rank(42.0) - 50000L) <= 0.02 * 50000)
  }

  test("quantile is consistent with rank (phi*n within relative error)") {
    val data = Workloads.uniform(100000, 47)
    val s = ReqSketch(0.05, 0.1, seed = 49)
    s.updateAll(data)
    val sorted = data.sorted
    for (phi <- Seq(0.01, 0.1, 0.5, 0.9, 0.99)) {
      val q = s.quantile(phi)
      val trueRank = ExactRank.ranksLocal(sorted.clone(), Array(q)).head
      val target = math.ceil(phi * data.length)
      assert(math.abs(trueRank - target) <= 0.1 * target + s.bufferCapacity / 2.0,
        s"phi=$phi trueRank=$trueRank target=$target")
    }
  }

  test("quantile rejects out-of-range phi") {
    val s = ReqSketch(0.1, 0.1, seed = 51)
    s.update(1.0)
    intercept[IllegalArgumentException](s.quantile(0.0))
    intercept[IllegalArgumentException](s.quantile(1.5))
  }

  test("coreset weights are powers of two summing to totalWeight") {
    val s = ReqSketch(0.1, 0.1, seed = 53)
    s.updateAll(Workloads.uniform(50000, 55))
    val cs = s.coreset
    assert(cs.map(_._2).sum == s.totalWeight)
    assert(cs.forall { case (_, w) => (w & (w - 1)) == 0 })
    assert(cs.map(_._1).toSeq == cs.map(_._1).sorted.toSeq)
  }

  test("space is sublinear: items << n at n=500k") {
    val s = ReqSketch(0.05, 0.1, seed = 57)
    s.updateAll(Workloads.uniform(500000, 59))
    assert(s.itemsStored < 500000 / 10, s"items=${s.itemsStored}")
  }

  test("deterministic given a fixed seed") {
    def build() = {
      val s = ReqSketch(0.05, 0.1, seed = 61)
      s.updateAll(Workloads.uniform(100000, 63)); s
    }
    val (a, b) = (build(), build())
    assert(a.itemsStored == b.itemsStored)
    assert(a.coreset.toSeq == b.coreset.toSeq)
  }

  test("different seeds give different internal states (coin flips differ)") {
    def build(seed: Long) = {
      val s = ReqSketch(0.05, 0.1, seed = seed)
      s.updateAll(Workloads.uniform(100000, 63)); s
    }
    assert(build(1).coreset.toSeq != build(2).coreset.toSeq)
  }

  test("ranks (batch) agrees with rank (single)") {
    val s = ReqSketch(0.1, 0.1, seed = 65)
    s.updateAll(Workloads.uniform(20000, 67))
    val qs = Array(0.1, 0.5, 0.9)
    assert(s.ranks(qs).toSeq == qs.map(s.rank).toSeq)
  }
  test("NaN is skipped: n, rank and quantile agree on the other items") {
    val rng = new java.util.Random(71)
    val data = Array.fill(100000)(if (rng.nextInt(10) == 0) Double.NaN else rng.nextDouble())
    val clean = data.filterNot(_.isNaN)
    val s = ReqSketch(0.05, 0.1, seed = 73)
    s.updateAll(data)
    assert(s.n == clean.length)
    assert(Harness.errProfile(s.rank, clean).maxRel <= 0.075)
    val q = s.quantile(0.95)
    assert(!q.isNaN && !q.isInfinite)
    val trueRank = ExactRank.ranksLocal(clean.clone(), Array(q)).head
    val target = math.ceil(0.95 * clean.length)
    assert(math.abs(trueRank - target) <= 0.1 * target + s.bufferCapacity / 2.0,
      s"trueRank=$trueRank target=$target")
  }

  test("±Inf are ordinary items for rank and quantile") {
    val small = ReqSketch(0.1, 0.1, seed = 75)
    small.updateAll(Array(Double.PositiveInfinity, -1.0, Double.NegativeInfinity, 0.0,
      Double.PositiveInfinity, 1.0))
    assert(small.n == 6)
    assert(small.rank(Double.NegativeInfinity) == 1)
    assert(small.rank(Double.MaxValue) == 4)
    assert(small.rank(Double.PositiveInfinity) == 6)
    assert(small.quantile(1.0 / 6) == Double.NegativeInfinity)
    assert(small.quantile(0.5) == 0.0)
    assert(small.quantile(1.0) == Double.PositiveInfinity)

    // 1% of each infinity in a stream long enough to compact
    val rng = new java.util.Random(77)
    val data = Array.fill(200000) {
      rng.nextInt(100) match {
        case 0 => Double.NegativeInfinity
        case 1 => Double.PositiveInfinity
        case _ => rng.nextDouble()
      }
    }
    val s = ReqSketch(0.05, 0.1, seed = 79)
    s.updateAll(data)
    assert(s.n == data.length)
    assert(Harness.errProfile(s.rank, data).maxRel <= 0.075)
    assert(s.rank(Double.PositiveInfinity) == s.totalWeight)
    assert(s.quantile(0.005) == Double.NegativeInfinity)
    assert(s.quantile(1.0) == Double.PositiveInfinity)
  }

  // ------------------------------------------------------------ golden state
  //
  // Sketch state pinned for fixed seeds: any change that does not change the
  // algorithm must leave every compaction coin, promoted item, level size and
  // schedule state as it was. Streams mix uniform doubles with heavy
  // duplicates, ±0.0 and ±Inf so that ties reach every compaction.

  private def goldenStream(n: Int, seed: Long): Array[Double] = {
    val r = new java.util.Random(seed)
    val xs = Array.fill(n) {
      r.nextInt(16) match {
        case 0 => -0.0
        case 1 => 0.0
        case 2 => Double.PositiveInfinity
        case 3 => Double.NegativeInfinity
        case 4 | 5 | 6 => math.floor(r.nextDouble() * 64)
        case _ => r.nextDouble()
      }
    }
    if (seed % 3 == 0) Workloads.ordered(xs, "reversed") else xs
  }

  /** SHA-256 of the sorted coreset's (raw bits, weight) pairs. */
  private def coresetDigest(s: ReqSketch): String =
    sha256(s.coreset.iterator.flatMap { case (x, w) =>
      Iterator(java.lang.Double.doubleToRawLongBits(x), w) })

  /** SHA-256 of `quantile` (raw bits) at φ = i/1024 and at extreme φ, then
    * of `rank` at signed zeros, infinities, NaN, values the streams repeat
    * and a grid over [0, 1).
    */
  private def queryDigest(s: ReqSketch): String = {
    val phis = (1 to 1024).map(_ / 1024.0) ++ Seq(1e-6, 0.001, 0.01, 0.99, 0.999)
    val ys = Seq(-0.0, 0.0, Double.NegativeInfinity, Double.PositiveInfinity, Double.NaN,
      0.5, 1.0, 63.0, -1.0, Double.MaxValue) ++ (0 until 200).map(_ / 200.0)
    sha256(phis.iterator.map(p => java.lang.Double.doubleToRawLongBits(s.quantile(p))) ++
      ys.iterator.map(s.rank))
  }

  private def sha256(values: Iterator[Long]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val bb = java.nio.ByteBuffer.allocate(8)
    values.foreach { v => bb.clear(); md.update(bb.putLong(v).array()) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def goldenState(s: ReqSketch): String =
    s"sizes=${s.levelSizes.mkString(",")} " +
      s"states=${(0 to s.height).map(s.levelState).mkString(",")} " +
      s"n=${s.n} bound=${s.nBound} sha256=${coresetDigest(s)}"

  private val goldenProfiles = Seq[(ParamProfile, Double)](
    Practical -> 0.01, Theory -> 0.05, FixedK(12) -> 0.01)

  private val golden: Map[String, String] = Map(
    "stream/Practical/seed=1" ->
      ("sizes=6153,5822,6068,6211,6129,6068,5735,2322" +
        " states=3175,1260,531,246,108,41,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=29871df4f8f694784ca8b85b9e294d04771f468a329ea38d4d80b82cc4f52e34"),
    "merge64/Practical/seed=1" ->
      ("sizes=6068,6068,5904,6068,5740,5740,6200,2236" +
        " states=511,63,62,59,52,36,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=1ca5c874770ce762786e3c25fa6134c44404e222d9afc23832773a3d7ff0cd76"),
    "tree64/Practical/seed=1" ->
      ("sizes=5248,5904,6068,5740,6068,5904,6068,2241" +
        " states=32,6,5,4,3,2,1,0" +
        " n=1048576 bound=30680521" +
        " sha256=b7158f555a1f4f2bf17445bedfdcc4ca9975c36e3444a02fb237ed2a0da05d16"),
    "stream/Practical/seed=2" ->
      ("sizes=6153,5822,6068,6212,6130,6068,5735,2325" +
        " states=3175,1260,531,246,108,41,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=9199e903b77c8e7cda02b6b5721ce3e9c718ccd120a5ff9bef5a8f7e16e13d8f"),
    "merge64/Practical/seed=2" ->
      ("sizes=6068,6068,5904,6068,5740,5740,6202,2233" +
        " states=511,63,62,59,52,36,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=3c85f2c218b46f83333b7f4beefe3c4bbc1b7c5037f47f0f78901a754179df20"),
    "tree64/Practical/seed=2" ->
      ("sizes=5248,5904,6068,5740,6068,5904,6068,2242" +
        " states=32,6,5,4,3,2,1,0" +
        " n=1048576 bound=30680521" +
        " sha256=711d6fb8880b752ce450c9d29024360efe87296fbdc303a5e3c6a95afe302dde"),
    "stream/Practical/seed=3" ->
      ("sizes=6153,5822,6068,6211,6130,6068,5735,2321" +
        " states=3175,1260,531,246,108,41,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=63454a3228d7d610fb5edf1cdd3b0c67c02b213a8f8e061aa2bd2165e84cb48b"),
    "merge64/Practical/seed=3" ->
      ("sizes=6068,6068,5904,6068,5740,5740,6201,2233" +
        " states=511,63,62,59,52,36,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=d24fb5971309b296157b365c4d0a39185d47e3aaf21fdb37a49adbf6367e0561"),
    "tree64/Practical/seed=3" ->
      ("sizes=5248,5904,6068,5740,6068,5904,6068,2242" +
        " states=32,6,5,4,3,2,1,0" +
        " n=1048576 bound=30680521" +
        " sha256=90f943cb78a4a3464e801bb387b56f27dbe11bbb62e22e9aee1093ec5fee3537"),
    "stream/Theory/seed=1" ->
      ("sizes=9762,9728,9216,9984,10128,9728,6707" +
        " states=2026,798,344,153,61,18,0" +
        " n=1048576 bound=78535044" +
        " sha256=49318b27f0b3fa6cf73f906ce3eaa4ddc24c6c6fb73cf29e1bcc5f1715312e27"),
    "merge64/Theory/seed=1" ->
      ("sizes=9216,9984,9472,9984,9728,9984,6664" +
        " states=504,63,60,55,42,17,0" +
        " n=1048576 bound=78535044" +
        " sha256=bdaf1a606ff21810663995066f7563d14a7e2b692c5db181e4277603601bcf47"),
    "tree64/Theory/seed=1" ->
      ("sizes=9984,9728,9472,9984,9728,9984,6660" +
        " states=13,6,4,3,2,1,0" +
        " n=1048576 bound=78535044" +
        " sha256=634dce9dd239f8f713f9a7bfc85fd93511827526c2152e2d78a9083b09626962"),
    "stream/Theory/seed=2" ->
      ("sizes=9762,9728,9216,9984,10128,9728,6707" +
        " states=2026,798,344,153,61,18,0" +
        " n=1048576 bound=78535044" +
        " sha256=f75da6c87209f47f27034265c2fc7d1e472dc17b25d1296dfc85eb90d9b26bcf"),
    "merge64/Theory/seed=2" ->
      ("sizes=9216,9984,9472,9984,9728,9984,6664" +
        " states=504,63,60,55,42,17,0" +
        " n=1048576 bound=78535044" +
        " sha256=eff0d195f01c2acbd2bf0ed3ab4ff59f7af471e3809c192695224183f91a246a"),
    "tree64/Theory/seed=2" ->
      ("sizes=9984,9728,9472,9984,9728,9984,6660" +
        " states=13,6,4,3,2,1,0" +
        " n=1048576 bound=78535044" +
        " sha256=a8c83ff78a77be9bef4fc3ca21b1e05cd3c6de999498476afee006717065dcdc"),
    "stream/Theory/seed=3" ->
      ("sizes=9762,9728,9216,9984,10128,9728,6707" +
        " states=2026,798,344,153,61,18,0" +
        " n=1048576 bound=78535044" +
        " sha256=5caf63ac0db16978d4bb2f4c525cbe4e335a721558b5a5072090d69bd8043c79"),
    "merge64/Theory/seed=3" ->
      ("sizes=9216,9984,9472,9984,9728,9984,6664" +
        " states=504,63,60,55,42,17,0" +
        " n=1048576 bound=78535044" +
        " sha256=f6b3a53aae189f47659fb112acfc8fbfaede22541f3bce9c1d10004489e95e1e"),
    "tree64/Theory/seed=3" ->
      ("sizes=9984,9728,9472,9984,9728,9984,6660" +
        " states=13,6,4,3,2,1,0" +
        " n=1048576 bound=78535044" +
        " sha256=e795999934c927e918df83cf0eb11d24313eb6bc7c8a5feb2f830bfb2f287706"),
    "stream/FixedK(12)/seed=1" ->
      ("sizes=516,522,516,512,504,495,504,492,480,504,527" +
        " states=43670,17434,7623,3598,1768,864,418,196,88,30,0" +
        " n=1048576 bound=16777216" +
        " sha256=0743ce245f81b3fe0c9f5efd187ab12ec5556581ec612ea404c90b3f50a4122e"),
    "merge64/FixedK(12)/seed=1" ->
      ("sizes=516,516,516,504,504,516,492,480,516,522,513" +
        " states=1023,2047,255,1022,118,63,60,56,49,26,0" +
        " n=1048576 bound=16777216" +
        " sha256=d890d6598245c284d80c12bdf3487fb98fb526a5ec82ac8cec6dfe9d133ce6f9"),
    "tree64/FixedK(12)/seed=1" ->
      ("sizes=504,504,504,516,456,504,516,516,504,516,512" +
        " states=666,250,102,35,32,14,5,3,2,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=8619914c830ca140e3f9d932b79e37fe49a3d602fc5d3c12124bda4e123b50ff"),
    "stream/FixedK(12)/seed=2" ->
      ("sizes=516,522,516,499,480,516,504,497,516,515,514" +
        " states=43670,17434,7623,3596,1768,869,422,200,89,30,0" +
        " n=1048576 bound=16777216" +
        " sha256=311f8ff951df8f11650626a4576b75dc3dbc8f06bf2d3fd4811830a01362625b"),
    "merge64/FixedK(12)/seed=2" ->
      ("sizes=516,516,516,504,516,516,492,480,516,504,521" +
        " states=1023,2047,255,1022,119,63,60,56,49,26,0" +
        " n=1048576 bound=16777216" +
        " sha256=3af6c52d2c57b362d09b4fcc766c74451efc055f4a9b9b0fcd5cc164976bdea6"),
    "tree64/FixedK(12)/seed=2" ->
      ("sizes=504,504,504,516,456,504,516,516,504,516,513" +
        " states=666,250,102,35,32,6,5,3,2,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=6f431f6a066d6dd4db26ff14dfead032aa4dd80a3f81ae42d5f8133ed9dd6af1"),
    "stream/FixedK(12)/seed=3" ->
      ("sizes=516,522,516,499,480,516,492,516,512,516,507" +
        " states=43670,17434,7623,3596,1768,873,412,193,82,29,0" +
        " n=1048576 bound=16777216" +
        " sha256=b3d0b0de8f44afbc67840f4dd4e9f51d0328c98396c74b4aa789463bf147f2df"),
    "merge64/FixedK(12)/seed=3" ->
      ("sizes=516,516,516,504,516,516,492,516,468,492,516,8" +
        " states=1023,2047,255,1022,123,63,60,57,48,28,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=a8e2cd408f70a451eef331b8d91570214ccabe25d2743722368edbd956b1be2a"),
    "tree64/FixedK(12)/seed=3" ->
      ("sizes=504,504,504,516,456,468,516,516,504,516,513" +
        " states=666,250,102,35,32,16,13,3,2,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=b12137d8e8204a8e1d6559d465e737a8b3aacf58bfedb00d4e222bc029e84cdd")
  )

  private def goldenSketch(profile: ParamProfile, eps: Double, seed: Int, mode: String): ReqSketch = {
    val data = goldenStream(1 << 20, seed)
    mode match {
      case "stream" =>
        val s = ReqSketch(eps, 0.05, profile, seed = seed)
        s.updateAll(data)
        s
      case _ =>
        // merge64 folds decoded chunks left to right; tree64 merges live
        // chunks, pending tails and all, pairwise up a balanced tree.
        var chunks = data.grouped(data.length / 64).zipWithIndex.map { case (c, i) =>
          val chunk = ReqSketch(eps, 0.05, profile, seed = 100 * seed + i)
          chunk.updateAll(c)
          if (mode == "merge64") ReqSketch.fromBytes(ReqSketch.toBytes(chunk)) else chunk
        }.toVector
        if (mode == "merge64") chunks.reduce((a, b) => a.merge(b))
        else {
          while (chunks.size > 1) chunks = chunks.grouped(2).map(p => p(0).merge(p(1))).toVector
          chunks.head
        }
    }
  }

  /** `queryDigest` of each golden sketch. */
  private val goldenQueries: Map[String, String] = Map(
    "stream/Practical/seed=1" -> "47016929944d46642621477023d419c14629f9149cd34ec6861cf1f7e3077b78",
    "merge64/Practical/seed=1" -> "79f3b2b5cc1acfa155626cb2fdc4cc4ea854590fa28f3556476714b693a4e307",
    "tree64/Practical/seed=1" -> "31046624b1570c716429b8f26f9d27bee53a18c9ca3b13e552a01fe82872f5b8",
    "stream/Practical/seed=2" -> "bf078514f25ffbe42670c7a176046826767281fb6595a73b479b378b015c4876",
    "merge64/Practical/seed=2" -> "392bc0ac71c4b7b9ff5f5a2dcddbb27ca8b06bad86daf08d4d2feec7893f24ea",
    "tree64/Practical/seed=2" -> "146c462bae119850be5b14665526daf93c433b7d2af70e7ab8c8916840534458",
    "stream/Practical/seed=3" -> "476f9d0c9da99f96fe0f8facdd9ae3860f3a115c794cbb3e2ab6bc4c9638dafc",
    "merge64/Practical/seed=3" -> "0e7e9eb34b84a57f306114d57f91ccc8b96f469eb49b663801bba3a3732660b3",
    "tree64/Practical/seed=3" -> "899cee2dabf0fb72ec509863c0ef1057ab98ad5a48a32675b4bd9cfb7af10fc1",
    "stream/Theory/seed=1" -> "3a23695aa86e0d9279dde9640ac9da4ae32ec0387b054983254c1a4545bd2ddd",
    "merge64/Theory/seed=1" -> "133ce97046b13ab5d138513b152a994487fd8b906fd8300e58cd39f72b8d3dfc",
    "tree64/Theory/seed=1" -> "32688b310f4d422f0765ad2f2fd5dd1e15dfec7a5ba4c790dfd47a18d6e4affb",
    "stream/Theory/seed=2" -> "0f0781c9f1a8d384565740910622e9c9aac4e9b59ef2ebd4ac10de5b3e57c5ac",
    "merge64/Theory/seed=2" -> "527a5afb3cf7a44bc52f7c2aacf90963196d290a4f73a311045051345512c6aa",
    "tree64/Theory/seed=2" -> "505d2c1aec649235f42775cb32bc0c0e41914c5d722d7fe8a91f0731388d77d7",
    "stream/Theory/seed=3" -> "2ec33890d44bcca9527bc41821578500be28f21c03ef10ee591fd2e428741cbf",
    "merge64/Theory/seed=3" -> "979e62a0439e66c431e775292bb749245055304ac9fea84c6926d534e09d08f0",
    "tree64/Theory/seed=3" -> "a8280804edd6a52f1546ece62a534c06b022eb8ddc2b2da0534167b959912042",
    "stream/FixedK(12)/seed=1" -> "95f8828c1309f7532a16f91ca22407bb976ff047945361a24d6098ef3e25b39b",
    "merge64/FixedK(12)/seed=1" -> "504bc9a72e9f0b33f340ac1ebf7109af77f903bd8015478ca5d298759d69730d",
    "tree64/FixedK(12)/seed=1" -> "ca1e352fbc48bc7a5448355adfdba77bd42116b1f5bb95407ab43959dfef6168",
    "stream/FixedK(12)/seed=2" -> "2b96589aa349e01c9dd3659f29be2a40f3ef61fb6f316470a78b7b6b2be17add",
    "merge64/FixedK(12)/seed=2" -> "90995f89167d3b15e3e8470fe937d3bd08a62b7c4a96c04ec89555505b37e157",
    "tree64/FixedK(12)/seed=2" -> "9995e6d0f618d5ea091cd0a81af9337b4c2889370fd47951349308b324e4814a",
    "stream/FixedK(12)/seed=3" -> "390a00297771b9a52c4c48d3ffd547105873c65b60eb2d541b7e5229cb829ed7",
    "merge64/FixedK(12)/seed=3" -> "4e78cdba5a5f67aeb6aed989e6a04f678b7d339ad0eccb9d830cd7350944e0af",
    "tree64/FixedK(12)/seed=3" -> "d8da54fa5c2973537a89ee462cdcf7d854e97ca62bf1beb002de8ac316cad3ce"
  )

  for ((profile, eps) <- goldenProfiles; seed <- 1 to 3; mode <- Seq("stream", "merge64", "tree64")) {
    val name = s"$mode/$profile/seed=$seed"
    test(s"golden sketch state: $name") {
      val actual = goldenState(goldenSketch(profile, eps, seed, mode))
      assert(golden.get(name).contains(actual), s"\"$name\" -> \"$actual\",")
    }
    test(s"golden query answers: $name") {
      val s = goldenSketch(profile, eps, seed, mode)
      assert(s.rank(-0.0) == s.rank(0.0))
      val actual = queryDigest(s)
      assert(goldenQueries.get(name).contains(actual), s"\"$name\" -> \"$actual\",")
    }
  }
}
