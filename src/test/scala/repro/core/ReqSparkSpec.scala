package repro.core

import org.apache.spark.sql.functions.{col, count, lit, rand}
import repro.{SparkSpec, SynthData}
import repro.exp.{Harness, Workloads}

/** Spark integration: the sketch as a distributed aggregate — per-partition
  * sketches merged by treeReduce, and the typed Aggregator as a UDAF in
  * DataFrame and SQL group-bys. This is the "fully mergeable ⇒ suitable for
  * parallel and distributed computing environments" claim, executed.
  */
class ReqSparkSpec extends SparkSpec {

  private val eps = 0.05

  test("sketchColumn summarizes every row (n matches count)") {
    val df = SynthData.uniformKeys(spark, rows = 100000, nKeys = 10000, seed = 1)
    val s = ReqSpark.sketchColumn(df, "v", eps, 0.1, Practical, seed = 2)
    assert(s.n == 100000)
  }

  test("sketchColumn keeps relative error on a distributed uniform column") {
    val df = SynthData.uniformKeys(spark, rows = 200000, nKeys = 10000, seed = 3)
      .repartition(32)
    val s = ReqSpark.sketchColumn(df, "v", eps, 0.1, Practical, seed = 4)
    val local = df.select(col("v")).collect().map(_.getDouble(0))
    val p = Harness.errProfile(s.rank, local)
    assert(p.maxRel <= 1.5 * eps, f"maxRel=${p.maxRel}%.4f")
  }

  test("sketchColumn keeps relative error on zipf keys (heavy duplicates)") {
    val df = SynthData.zipfKeys(spark, rows = 200000, nKeys = 100000, seed = 5)
      .repartition(16)
    val s = ReqSpark.sketchColumn(df, "k", eps, 0.1, Practical, seed = 6)
    val local = df.select(col("k").cast("double")).collect().map(_.getDouble(0))
    val p = Harness.errProfile(s.rank, local)
    assert(p.maxRel <= 1.5 * eps, f"maxRel=${p.maxRel}%.4f")
  }

  test("sketchColumn at depth 4 agrees with depth 2 in accuracy") {
    val df = SynthData.uniformKeys(spark, rows = 150000, nKeys = 1000, seed = 7)
      .repartition(64)
    val local = df.select(col("v")).collect().map(_.getDouble(0))
    val d2 = ReqSpark.sketchColumn(df, "v", eps, 0.1, Practical, seed = 8, depth = 2)
    val d4 = ReqSpark.sketchColumn(df, "v", eps, 0.1, Practical, seed = 9, depth = 4)
    assert(d2.n == d4.n)
    assert(Harness.errProfile(d2.rank, local).maxRel <= 1.5 * eps)
    assert(Harness.errProfile(d4.rank, local).maxRel <= 1.5 * eps)
  }

  test("sketchColumn drops nulls and NaNs") {
    import spark.implicits._
    val df = Seq(Some(1.0), None, Some(Double.NaN), Some(2.0), Some(3.0))
      .toDF("x")
    val s = ReqSpark.sketchColumn(df, "x", 0.1, 0.1, Practical, seed = 10)
    assert(s.n == 3)
    assert(s.rank(3.0) == 3)
  }

  test("sketchColumn on an empty frame returns an empty sketch") {
    import spark.implicits._
    val df = Seq.empty[Double].toDF("x")
    val s = ReqSpark.sketchColumn(df, "x", 0.1, 0.1, Practical, seed = 11)
    assert(s.n == 0)
  }

  test("sketchColumn with more partitions than rows merges empty partition sketches") {
    val df = spark.range(0, 5, 1, numPartitions = 16).selectExpr("cast(id as double) as x")
    val s = ReqSpark.sketchColumn(df, "x", 0.1, 0.1, Practical, seed = 22)
    assert(s.n == 5)
    assert((0 to 4).forall(i => s.rank(i.toDouble) == i + 1))
  }

  test("sketchColumn merges in a fixed order: a local fold in that order gives the same bytes") {
    val df = spark.range(0, 100000, 1, numPartitions = 16).select(rand(25).as("v"))
    val parts = df.rdd.glom().collect()
    def partition(pid: Int): ReqSketch = {
      val s = ReqSketch(eps, 0.1, Practical, ReqSpark.mixSeed(26, pid))
      parts(pid).foreach(row => s.update(row.getDouble(0)))
      s
    }
    // treeAggregate's shape for 16 partitions: scale 4 at depth 2 gives 4
    // groups, scale 3 at depth 3 gives 5; group g holds i ≡ g (mod groups).
    for ((depth, groups) <- Seq(2 -> 4, 3 -> 5)) {
      val local = (0 until groups)
        .map(g => (g until 16 by groups).map(partition).reduce(_ merge _))
        .reduce(_ merge _)
      val s = ReqSpark.sketchColumn(df, "v", eps, 0.1, Practical, seed = 26, depth = depth)
      assert(ReqSketch.toBytes(s).sameElements(ReqSketch.toBytes(local)), s"depth $depth")
    }
  }

  test("one sketchColumn call runs exactly one Spark job") {
    val sc = spark.sparkContext
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 100, seed = 23)
    def jobs(group: String): Int = sc.statusTracker.getJobIdsForGroup(group).length
    def inGroup[A](group: String)(f: => A): A = {
      sc.setJobGroup(group, group)
      try f finally sc.clearJobGroup()
    }
    inGroup("req-sketchColumn")(ReqSpark.sketchColumn(df, "v", eps, 0.1, Practical, seed = 24))
    // The status tracker learns of jobs asynchronously but in order: once a
    // job started after the call is visible, every job of the call is too.
    inGroup("req-sketchColumn-marker")(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (jobs("req-sketchColumn-marker") == 0 && System.nanoTime() < deadline) Thread.sleep(10)
    assert(jobs("req-sketchColumn-marker") == 1)
    assert(jobs("req-sketchColumn") == 1)
  }

  test("mixSeed never returns 0 and spreads partition ids") {
    val seeds = (0 until 1000).map(ReqSpark.mixSeed(42L, _))
    assert(seeds.forall(_ != 0))
    assert(seeds.distinct.size == seeds.size)
  }

  test("UDAF buffers are seeded per partition; seed 0 stays entropy") {
    def seeds(seed: Long) = {
      val agg = new ReqSketchAggregator(eps, 0.1, Practical, seed)
      spark.sparkContext.parallelize(0 until 4, 4).map(_ => agg.zero.seed).collect()
    }
    assert(seeds(22).distinct.length == 4)
    assert(seeds(0).forall(_ == 0))
  }

  test("UDAF: whole-column sketch matches the column count") {
    val df = SynthData.uniformKeys(spark, rows = 50000, nKeys = 500, seed = 12)
    val bytes = df.agg(ReqSpark.reqUdaf(eps, 0.1, Practical, seed = 13)(col("v"))
      .alias("sk")).head().getAs[Array[Byte]]("sk")
    val s = ReqSketch.fromBytes(bytes)
    assert(s.n == 50000)
  }

  test("UDAF: per-group sketches answer per-group quantiles within rel. error") {
    val sf = 0.01
    val li = SynthData.lineitem(spark, sf).select(
      col("l_returnflag"), col("l_extendedprice").cast("double").as("p"))
    val grouped = li.groupBy("l_returnflag")
      .agg(ReqSpark.reqUdaf(eps, 0.1, Practical, seed = 14)(col("p")).alias("sk"),
           count(col("p")).alias("cnt"))
      .collect()
    assert(grouped.length >= 2)
    grouped.foreach { row =>
      val flag = row.getString(0)
      val s = ReqSketch.fromBytes(row.getAs[Array[Byte]]("sk"))
      val cnt = row.getLong(2)
      assert(s.n == cnt, s"group $flag: sketch n=${s.n} vs count=$cnt")
      val local = li.filter(col("l_returnflag") === flag)
        .select("p").collect().map(_.getDouble(0))
      val p = Harness.errProfile(s.rank, local)
      assert(p.maxRel <= 1.5 * eps, f"group $flag maxRel=${p.maxRel}%.4f")
    }
  }

  test("UDAF registered in SQL produces a queryable sketch") {
    ReqSpark.register(spark, "req_sketch_t", eps, 0.1, Practical, seed = 15)
    SynthData.uniformKeys(spark, rows = 30000, nKeys = 100, seed = 16)
      .createOrReplaceTempView("uk")
    val bytes = spark.sql("SELECT req_sketch_t(v) AS sk FROM uk")
      .head().getAs[Array[Byte]]("sk")
    assert(ReqSketch.fromBytes(bytes).n == 30000)
  }

  test("quantileUdf and rankUdf work on the UDAF output") {
    import spark.implicits._
    val df = Workloads.uniform(40000, 17).toSeq.toDF("x")
    val skDf = df.agg(ReqSpark.reqUdaf(eps, 0.1, Practical, seed = 18)(col("x")).alias("sk"))
    val med = skDf.select(ReqSpark.quantileUdf(0.5)(col("sk")).alias("m"))
      .head().getDouble(0)
    assert(med > 0.4 && med < 0.6, s"median estimate $med")
    val r = skDf.select(ReqSpark.rankUdf(0.25)(col("sk")).alias("r"))
      .head().getLong(0)
    assert(math.abs(r - 10000) <= 1500, s"rank(0.25)=$r")
  }

  test("treeReduce result serializes through Spark's closure path") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 100, seed = 19)
    val s = ReqSpark.sketchColumn(df, "v", eps, 0.1, Practical, seed = 20)
    val rt = ReqSketch.fromBytes(ReqSketch.toBytes(s))
    assert(rt.n == s.n && rt.rank(0.5) == s.rank(0.5))
  }

  test("UDAF skips NaN rows, as sketchColumn does") {
    import spark.implicits._
    val df = Seq(1.0, Double.NaN, 2.0, Double.NaN, 3.0).toDF("x")
    val bytes = df.agg(ReqSpark.reqUdaf(0.1, 0.1, Practical, seed = 21)(col("x")).alias("sk"))
      .head().getAs[Array[Byte]]("sk")
    val s = ReqSketch.fromBytes(bytes)
    assert(s.n == 3 && s.rank(3.0) == 3 && s.quantile(1.0) == 3.0)
  }

  test("UDAF skips null rows, as sketchColumn does") {
    import spark.implicits._
    val df = Seq(Some(1.0), None, Some(2.0), None, Some(3.0)).toDF("x")
    val row = df.agg(ReqSpark.reqUdaf(0.1, 0.1, Practical, seed = 27)(col("x")).alias("sk"),
      count(col("x")).alias("cnt")).head()
    val s = ReqSketch.fromBytes(row.getAs[Array[Byte]]("sk"))
    assert(s.n == 3 && row.getAs[Long]("cnt") == 3)
    assert(s.rank(0.0) == 0 && s.rank(3.0) == 3)
  }

  test("quantileUdf and rankUdf return NULL for a NULL sketch") {
    val row = spark.range(1).select(
      ReqSpark.quantileUdf(0.5)(lit(null).cast("binary")).alias("q"),
      ReqSpark.rankUdf(0.5)(lit(null).cast("binary")).alias("r")).head()
    assert(row.isNullAt(0) && row.isNullAt(1))
  }
}
